"""repro: reproduction of "Revisiting RowHammer" (ISCA 2020).

The package is organized into the paper's primary contribution
(:mod:`repro.core` -- the RowHammer characterization pipeline and the
mitigation scaling study) and the substrates it depends on:

* :mod:`repro.dram` -- behavioural DRAM device model with a circuit-level
  RowHammer vulnerability model (replaces the 1580 real chips).
* :mod:`repro.ecc` -- SEC Hamming codes and the LPDDR4 on-die ECC model.
* :mod:`repro.sim` -- cycle-level DDR4 memory-system simulator with a simple
  multi-core model (replaces Ramulator + SPEC traces).
* :mod:`repro.mitigations` -- the five state-of-the-art RowHammer mitigation
  mechanisms evaluated by the paper plus the ideal refresh-based mechanism.
* :mod:`repro.analysis` -- builders that regenerate every table and figure in
  the paper's evaluation.
* :mod:`repro.experiments` -- the orchestration layer: every paper analysis
  is a named, registered *study* that an :class:`ExperimentSession` fans out
  over a chip population through pluggable serial/parallel executors, with
  results cached on disk by a :class:`ResultStore`.

Quickstart
----------
Run a registered study over a population through a session:

>>> from repro import ExperimentSession, SerialExecutor, list_studies
>>> "fig8-hcfirst" in list_studies()
True
>>> session = ExperimentSession.from_table1(
...     chips_per_config=1, seed=1,
...     configurations=[("LPDDR4-1y", "A"), ("DDR4-new", "A")],
... )
>>> outcome = session.run("fig8-hcfirst")
>>> sorted(outcome.by_configuration()) == [("DDR4-new", "A"), ("LPDDR4-1y", "A")]
True

or drive a single chip directly with the low-level primitives:

>>> from repro import make_chip, DoubleSidedHammer
>>> chip = make_chip("LPDDR4-1y", manufacturer="A", seed=1)
>>> hammer = DoubleSidedHammer(chip)
>>> result = hammer.hammer_victim(bank=0, victim_row=100, hammer_count=20_000)
>>> result.num_bit_flips >= 0
True

Swapping ``executor=ParallelExecutor()`` into a session parallelizes across
chips with bit-identical results, and passing ``store=ResultStore(path)``
makes reruns of any already-computed (study, config, chip) free.
``ServiceExecutor`` loads the service stack on first use (see
:mod:`repro.experiments`).
"""

from repro.dram.chip import DramChip
from repro.dram.population import (
    flatten_population,
    make_chip,
    make_population,
)
from repro.dram.vulnerability import VulnerabilityProfile, profile_for
from repro.core.hammer import DoubleSidedHammer, HammerResult
from repro.core.characterization import CharacterizationConfig, RowHammerCharacterizer
from repro.core.data_patterns import DataPattern, STANDARD_PATTERNS
from repro.experiments import (
    ExperimentSession,
    Executor,
    ParallelExecutor,
    ResultStore,
    SerialExecutor,
    SessionRunResult,
    StudyResult,
    WorkUnit,
    get_study,
    list_studies,
    register_study,
)

__version__ = "1.1.0"

__all__ = [
    # DRAM substrate
    "DramChip",
    "make_chip",
    "make_population",
    "flatten_population",
    "VulnerabilityProfile",
    "profile_for",
    # Characterization primitives
    "DoubleSidedHammer",
    "HammerResult",
    "RowHammerCharacterizer",
    "CharacterizationConfig",
    "DataPattern",
    "STANDARD_PATTERNS",
    # Experiment orchestration
    "ExperimentSession",
    "SessionRunResult",
    "Executor",
    "SerialExecutor",
    "ParallelExecutor",
    "ServiceExecutor",
    "ResultStore",
    "StudyResult",
    "WorkUnit",
    "get_study",
    "list_studies",
    "register_study",
    "__version__",
]


def __getattr__(name: str) -> type:
    if name == "ServiceExecutor":
        from repro.experiments.remote import ServiceExecutor

        return ServiceExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
