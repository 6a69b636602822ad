"""A local run loads none of the distributed-service stack.

Figure 10's work units and the per-chip characterization run as many
short local processes, none of which talks to a scheduler or builds a
process pool.  ``repro.service``, ``ServiceExecutor`` and the process pool
therefore resolve on first use, so such a process never imports asyncio,
ssl, socket, selectors, concurrent.futures or multiprocessing.  The first
test pins that in a fresh interpreter.  Importing ``repro`` registers the chip
studies, and the registry imports the other built-in study modules only
on a miss, so a process that runs chip studies never loads the
simulator, the mitigations or Figure 10's study module either; the
second test pins that.  The others check that every
lazily resolved name is still the object its defining module holds.
"""

from __future__ import annotations

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro
import repro.experiments
import repro.service
from repro.experiments import list_studies
from repro.experiments.remote import ServiceExecutor

SRC_ROOT = str(Path(repro.__file__).resolve().parents[1])

#: Modules that no local serial run may load.
SERVICE_STACK = (
    "asyncio",
    "ssl",
    "socket",
    "selectors",
    "multiprocessing",
    "concurrent.futures",
    "concurrent.futures.process",
    "repro.experiments.remote",
    "repro.service.client",
    "repro.service.scheduler",
    "repro.service.worker",
    "repro.service.protocol",
    "repro.service.leases",
    "repro.service.telemetry",
)

#: A tiny Figure 10 sweep and one chip study, each through a serial
#: session; prints which of the modules named in argv[1] got loaded.
LOCAL_RUN = """
import json, sys
import repro
from repro.analysis.mitigation_study import MitigationStudyConfig
from repro.dram.geometry import ChipGeometry
from repro.experiments import ExperimentSession, SerialExecutor

fig10 = MitigationStudyConfig(
    hcfirst_values=(2_000,), mechanisms=("PARA",), num_mixes=1, rows_per_bank=512,
    dram_cycles=2_000, requests_per_core=400, seed=3,
)
assert ExperimentSession(executor=SerialExecutor()).run("fig10-mitigations", fig10).executed
chips = ExperimentSession.from_table1(
    chips_per_config=1, seed=1, geometry=ChipGeometry(banks=1, rows_per_bank=32, row_bytes=16),
    configurations=[("DDR4-new", "A")], executor=SerialExecutor(),
)
assert chips.run("fig5-hc-sweep").executed
print(json.dumps(sorted(set(sys.modules) & set(json.loads(sys.argv[1])))))
"""


#: Packages and modules no process that runs only chip studies may load.
CHIP_STUDY_FREE = (
    "repro.sim",
    "repro.mitigations",
    "repro.analysis.mitigation_study",
    "repro.service",
)

#: One chip study through a serial session; prints which modules of the
#: packages named in argv[1] got loaded.  A registry miss afterwards must
#: still load every built-in study, so its error names Figure 10's too.
CHIP_RUN = """
import json, sys
from repro.dram.geometry import ChipGeometry
from repro.experiments import ExperimentSession, SerialExecutor, get_study

chips = ExperimentSession.from_table1(
    chips_per_config=1, seed=1, geometry=ChipGeometry(banks=1, rows_per_bank=32, row_bytes=16),
    configurations=[("DDR4-new", "A")], executor=SerialExecutor(),
)
assert chips.run("fig8-hcfirst").executed
packages = json.loads(sys.argv[1])
loaded = sorted(
    module for module in sys.modules
    if any(module == package or module.startswith(package + ".") for package in packages)
)
try:
    get_study("no-such-study")
except KeyError as error:
    assert "'fig10-mitigations'" in str(error) and "'service-selftest'" in str(error), error
print(json.dumps(loaded))
"""


def _run_fresh(script: str, names) -> list:
    """What ``script`` prints last, run in a fresh interpreter with ``names`` as argv[1]."""
    env = dict(os.environ, PYTHONPATH=SRC_ROOT + os.pathsep + os.environ.get("PYTHONPATH", ""))
    run = subprocess.run(
        [sys.executable, "-c", script, json.dumps(names)],
        env=env,
        capture_output=True,
        text=True,
    )
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout.splitlines()[-1])


def test_a_local_run_loads_no_service_stack():
    assert _run_fresh(LOCAL_RUN, SERVICE_STACK) == []


def test_a_chip_study_loads_no_simulator_or_mitigation():
    assert _run_fresh(CHIP_RUN, CHIP_STUDY_FREE) == []


def test_every_service_name_resolves_to_its_defining_modules_object():
    submodules = [
        importlib.import_module(f"repro.service.{info.name}")
        for info in pkgutil.iter_modules(repro.service.__path__)
        if info.name != "__main__"
    ]
    for name in repro.service.__all__:
        value = getattr(repro.service, name)
        bound = [vars(module)[name] for module in submodules if name in vars(module)]
        assert bound and all(each is value for each in bound), name


def test_service_executor_resolves_from_both_packages():
    assert repro.ServiceExecutor is ServiceExecutor
    assert repro.experiments.ServiceExecutor is ServiceExecutor
    assert "ServiceExecutor" in repro.__all__
    assert "ServiceExecutor" in repro.experiments.__all__


def test_the_registry_still_holds_the_service_selftest():
    assert "service-selftest" in list_studies()


@pytest.mark.parametrize("module", [repro, repro.experiments, repro.service])
def test_an_unknown_name_raises_attribute_error(module):
    with pytest.raises(AttributeError, match="NoSuchName"):
        module.NoSuchName
