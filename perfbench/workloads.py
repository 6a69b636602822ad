"""The benchmark's three workloads, run through the public session API.

Each workload drives one layer of the library hard and barely touches the
others:

* ``fig10-grid`` -- a fresh Figure 10 sweep (18 work units, 8 evaluation
  points): the cycle-level simulator (``repro.sim``), never ``repro.dram``;
* ``charz-mix`` -- fresh Figure 8, Figure 9 and Table 5 runs over a
  three-chip population: the chip model's hammer path (``repro.core`` /
  ``repro.dram``, on-die ECC via the LPDDR4 chip), never ``repro.sim``;
* ``store-replay`` -- warm re-runs of a 2304-unit sweep from a filled disk
  store: unit decomposition, digests, ``ResultStore.get`` and merge, with
  no simulation.

Every operation runs in a fresh interpreter with a fresh ``ResultStore``
(store-replay: one new store and session per pass), so per-process caches
such as the Figure 10 trace LRU never carry work between repetitions.

The two fresh workloads are sized to a few seconds per operation (shorter
simulations, a smaller chip geometry and fewer Table 5 iterations than the
studies' defaults): on a shared host, single operations of 15-20 s were
seen to vary by 20-30% from one to the next, and the median of several
short operations per run is what keeps the run-to-run spread low.

This module imports the library lazily: the runner imports it for the
workload table without paying for the library's import.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List

REFERENCES_PATH = Path(__file__).with_name("references.json")

CHARZ_CONFIGURATIONS = (("DDR3-new", "C"), ("DDR4-new", "A"), ("LPDDR4-1x", "A"))
FIG10_NUM_MIXES = 2


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: "study": one fresh study run per child process, repeated until the
    #: run's time budget is spent.  "replay": each child fills a store during
    #: set-up, then replays it pass after pass for its share of the budget.
    kind: str
    #: Worker processes per untraced run: at least this many (study, one
    #: operation each) or exactly this many (replay).  Every worker is one
    #: set-up sample, so study workloads take at least three.
    min_workers: int


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            "fig10-grid",
            "fresh 18-unit Figure 10 sweep: time goes to repro.sim (controller, cores, "
            "event loop, batch kernel); repro.dram is never touched",
            kind="study",
            min_workers=3,
        ),
        Workload(
            "charz-mix",
            "fresh fig8/fig9/table5 runs on DDR3, DDR4 and LPDDR4 chips: the repro.dram "
            "hammer path with per-row RNG streams and on-die ECC; repro.sim is never touched",
            kind="study",
            min_workers=3,
        ),
        Workload(
            "store-replay",
            "warm re-run of a filled 2304-unit store: unit digests, ResultStore.get and "
            "merge with no simulation; the fill is set-up",
            kind="replay",
            min_workers=2,
        ),
    )
}


def load_references() -> Dict[str, Any]:
    with REFERENCES_PATH.open(encoding="utf-8") as handle:
        return json.load(handle)


def program_seed(workload: str, seed: int, references: Dict[str, Any]) -> int:
    """The library seed the benchmark's ``--seed`` selects for a workload.

    Seeds index a fixed pool of input variants whose payload digests are
    recorded in ``references.json``, so every run is checked against a
    reference.  The pools hold variants of matched size (see the ``pool``
    note there) so that the seed changes the inputs, not the amount of work.
    """
    pool = references[workload]["pool"]
    return int(pool[seed % len(pool)])


# ----------------------------------------------------------------------
# Library-side set-up and operations (run inside a worker process)
# ----------------------------------------------------------------------
def fig10_config(seed: int):
    from repro.analysis.mitigation_study import MitigationStudyConfig

    # Default mechanisms; 10k-cycle simulations still cross one refresh
    # interval (tREFI is 9360 cycles).
    return MitigationStudyConfig(
        hcfirst_values=(2000, 64),
        num_mixes=FIG10_NUM_MIXES,
        dram_cycles=10_000,
        requests_per_core=2_000,
        seed=seed,
    )


def charz_configs():
    """Study configs of charz-mix (``None``: the study's default)."""
    from repro.core.probability import ProbabilityStudyConfig

    return {
        "fig8-hcfirst": None,
        "fig9-ecc-words": None,
        "table5-flip-probability": ProbabilityStudyConfig(iterations=4),
    }


def replay_config(seed: int):
    from repro.analysis.mitigation_study import MitigationStudyConfig

    # The default sweep at 48 mixes is 2304 units, the unit count of the
    # paper-scale fig10-mitigations-full, on tiny simulations.
    return MitigationStudyConfig(
        num_mixes=48, rows_per_bank=512, dram_cycles=200, requests_per_core=50, seed=seed
    )


class OperationError(Exception):
    """An operation completed but its outcome breaks a workload invariant."""


def payload_digest(result) -> str:
    from repro.experiments.study import config_digest

    return config_digest(result.payloads())


def _fresh(result) -> None:
    if result.executed != result.units_total:
        raise OperationError(
            f"{result.study}: {result.cache_hits} of {result.units_total} units came "
            "from the store in a fresh run"
        )


class Fig10Grid:
    def __init__(self, seed: int, tmp: Path) -> None:
        from repro.experiments import ExperimentSession, ResultStore, SerialExecutor

        self.config = fig10_config(seed)
        self.session = ExperimentSession(
            executor=SerialExecutor(), store=ResultStore(tmp / "store")
        )
        self.chips: List[Any] = []

    def op(self) -> str:
        result = self.session.run("fig10-mitigations", self.config)
        _fresh(result)
        return payload_digest(result)


class CharzMix:
    def __init__(self, seed: int, tmp: Path) -> None:
        from repro.dram.geometry import ChipGeometry
        from repro.experiments import ExperimentSession, ResultStore, SerialExecutor

        self.configs = charz_configs()
        self.session = ExperimentSession.from_table1(
            chips_per_config=1,
            seed=seed,
            geometry=ChipGeometry(banks=1, rows_per_bank=32, row_bytes=64),
            configurations=CHARZ_CONFIGURATIONS,
            executor=SerialExecutor(),
            store=ResultStore(tmp / "store"),
        )
        self.chips = self.session.chips

    def op(self) -> str:
        from repro.experiments.study import config_digest

        digests = {}
        for study, config in self.configs.items():
            result = self.session.run(study, config)
            _fresh(result)
            digests[study] = payload_digest(result)
        return config_digest(digests)


class StoreReplay:
    def __init__(self, seed: int, tmp: Path) -> None:
        from repro.experiments import ExperimentSession, ResultStore, SerialExecutor

        self.config = replay_config(seed)
        self.root = tmp / "store"
        fill = ExperimentSession(executor=SerialExecutor(), store=ResultStore(self.root)).run(
            "fig10-mitigations", self.config
        )
        _fresh(fill)
        #: Digest of the fresh run; every replay pass must reproduce it.
        self.fill_digest = payload_digest(fill)
        self.chips: List[Any] = []

    def op(self) -> str:
        from repro.experiments import ExperimentSession, ResultStore, SerialExecutor

        store = ResultStore(self.root)
        result = ExperimentSession(executor=SerialExecutor(), store=store).run(
            "fig10-mitigations", self.config
        )
        if store.stats.misses or store.stats.hits != result.units_total or result.executed:
            raise OperationError(
                f"replay pass was not all hits: {store.stats.hits} hits, "
                f"{store.stats.misses} misses, {result.executed} executed"
            )
        digest = payload_digest(result)
        if digest != self.fill_digest:
            raise OperationError(f"replayed digest {digest} != fresh run's {self.fill_digest}")
        return digest


SETUPS: Dict[str, Callable[[int, Path], Any]] = {
    "fig10-grid": Fig10Grid,
    "charz-mix": CharzMix,
    "store-replay": StoreReplay,
}
