"""Absolute payload pins for the Figure 10 mitigation study.

:data:`FIG10_STUDY_DIGESTS` holds the
:func:`~repro.experiments.study.config_digest` of

* the merged session payloads of ``fig10-mitigations`` on a small config
  with the default mechanisms, at ``time_scale`` 1.0 and 0.01 (the
  counter-based mechanisms act only at the small scale), and
* the result of :func:`~repro.analysis.mitigation_study.run_mitigation_study`
  on a 64-row system refreshing ten times as often as DDR4, where ProHIT
  acts through its per-refresh hook.

Both step modes must reproduce each session digest.  A change that moves
a digest changes Figure 10's results: never re-record these to make a
refactor pass.
"""

import pytest

from repro.analysis.mitigation_study import MitigationStudyConfig, run_mitigation_study
from repro.experiments import ExperimentSession, SerialExecutor
from repro.experiments.study import config_digest
from repro.sim.config import SystemConfig
from repro.sim.timing import DDR4_2400
from repro.sim.workloads import make_workload_mixes

SESSION_CONFIG = dict(
    hcfirst_values=(200_000, 32_000, 2_000, 64),
    num_mixes=2,
    rows_per_bank=512,
    dram_cycles=2_000,
    requests_per_core=400,
    seed=3,
)

OBJECT_SYSTEM = SystemConfig(
    cores=2, banks=4, rows_per_bank=64, timings=DDR4_2400.scaled_refresh(0.1)
)

FIG10_STUDY_DIGESTS = {
    "session/time_scale=1.0": "4e741f0d49e2eacd",
    "session/time_scale=0.01": "a206fddc4d173529",
    "object-api": "beff101082f3a81b",
}


# A cycle-mode run takes several seconds; it runs with the slow tests.
@pytest.mark.parametrize("step_mode", ["event", pytest.param("cycle", marks=pytest.mark.slow)])
@pytest.mark.parametrize("time_scale", [1.0, 0.01])
def test_session_payload_digest(time_scale, step_mode):
    config = MitigationStudyConfig(time_scale=time_scale, step_mode=step_mode, **SESSION_CONFIG)
    result = ExperimentSession(executor=SerialExecutor()).run("fig10-mitigations", config)
    expected = FIG10_STUDY_DIGESTS[f"session/time_scale={time_scale}"]
    assert config_digest(result.payloads()) == expected


def test_object_api_digest():
    result = run_mitigation_study(
        system_config=OBJECT_SYSTEM,
        workload_mixes=make_workload_mixes(num_mixes=2, cores=OBJECT_SYSTEM.cores, seed=3),
        hcfirst_values=(200_000, 2_000, 64),
        dram_cycles=2_000,
        requests_per_core=400,
        seed=3,
        respect_design_constraints=False,
    )
    assert config_digest(result) == FIG10_STUDY_DIGESTS["object-api"]
