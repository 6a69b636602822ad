"""SessionRunResult surfaces executor recovery (retries / requeues).

Outcomes carry ``attempts``/``requeues`` (see
:class:`~repro.experiments.executors.TaskOutcome`); the session
accumulates them per study result and :class:`SessionRunResult` sums them,
so a caller can tell a clean sweep from one that survived worker deaths.
Local executors always report zero; a fake recovering executor stands in
for a service run here (the real service path is covered by
``tests/service/test_service_e2e.py``).
"""

from __future__ import annotations

from repro.experiments import ExperimentSession, SerialExecutor
from repro.experiments.executors import Executor, execute_task
from repro.service.selftest import ServiceSelfTestConfig

CONFIG = ServiceSelfTestConfig(units=4, rounds=50)


class RecoveringExecutor(Executor):
    """Executes locally but stamps every outcome as a second attempt."""

    def __init__(self, attempts: int = 2, requeues: int = 1) -> None:
        self.attempts = attempts
        self.requeues = requeues

    def iter_outcomes(self, tasks):
        for index, task in enumerate(tasks):
            outcome = execute_task(task)
            outcome.attempts = self.attempts
            outcome.requeues = self.requeues
            yield index, outcome


class TestSessionRecoveryCounters:
    def test_local_run_reports_zero_recovery(self):
        result = ExperimentSession(executor=SerialExecutor()).run(
            "service-selftest", CONFIG
        )
        assert result.retries == 0
        assert result.requeues == 0
        assert result.results[0].units_retries == 0
        assert result.results[0].units_requeued == 0

    def test_recovering_outcomes_accumulate_per_unit(self):
        result = ExperimentSession(executor=RecoveringExecutor()).run(
            "service-selftest", CONFIG
        )
        # attempts=2 means one retry per unit; requeues pass through as-is.
        assert result.retries == CONFIG.units
        assert result.requeues == CONFIG.units
        assert result.results[0].units_retries == CONFIG.units
        assert result.results[0].units_requeued == CONFIG.units
        # Recovery is bookkeeping: payloads still match the clean run.
        clean = ExperimentSession(executor=SerialExecutor()).run(
            "service-selftest", CONFIG
        )
        assert result.single() == clean.single()

    def test_first_attempt_success_counts_no_retry(self):
        result = ExperimentSession(
            executor=RecoveringExecutor(attempts=1, requeues=0)
        ).run("service-selftest", CONFIG)
        assert result.retries == 0
        assert result.requeues == 0
