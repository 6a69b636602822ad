"""ParallelExecutor determinism for the *simulator-backed* Figure 10 study.

The chip-level studies are covered by ``tests/experiments/test_session.py``;
this suite pins the same bit-for-bit guarantee for ``fig10-mitigations``,
whose payload comes from the event-driven cycle-level simulator rather than
from a behavioural chip: shipping the study into a spawn-based worker
process must reproduce the in-process result exactly, in both step modes.
"""

import pytest

from repro.analysis.mitigation_study import MitigationStudyConfig
from repro.experiments import ExperimentSession, ParallelExecutor, SerialExecutor

pytestmark = pytest.mark.slow

#: Tiny but representative sweep: a scalable probabilistic mechanism, the
#: tuned-point mechanisms, and the oracle, on one small mix.
TINY_CONFIG = dict(
    hcfirst_values=(2_000, 256),
    mechanisms=("PARA", "ProHIT", "Ideal"),
    num_mixes=1,
    rows_per_bank=512,
    dram_cycles=3_000,
    requests_per_core=600,
    seed=3,
)


def run_study(executor, step_mode):
    session = ExperimentSession(population=None, executor=executor)
    outcome = session.run(
        "fig10-mitigations", MitigationStudyConfig(step_mode=step_mode, **TINY_CONFIG)
    )
    return outcome.single()


@pytest.mark.parametrize("step_mode", ["event", "cycle"])
def test_parallel_matches_serial_bit_for_bit(step_mode):
    serial = run_study(SerialExecutor(), step_mode)
    parallel = run_study(ParallelExecutor(max_workers=2), step_mode)
    assert serial.points == parallel.points
    assert serial.points, "the study must produce evaluation points"


def test_event_and_cycle_studies_identical_through_parallel_executor():
    """The golden guarantee survives process shipping: an event-mode study in
    a worker equals a cycle-mode study in a worker."""
    event = run_study(ParallelExecutor(max_workers=2), "event")
    cycle = run_study(ParallelExecutor(max_workers=2), "cycle")
    assert event.points == cycle.points
