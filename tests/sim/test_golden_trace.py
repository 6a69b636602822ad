"""Golden-trace regression suite: event-driven mode vs the cycle reference.

The event-driven fast path (``step_mode="event"``) must be *bit-identical*
to the cycle-by-cycle reference (``step_mode="cycle"``): every
:class:`~repro.sim.system.SimulationResult` field, every counter.  The
reference scheduler makes its decisions by scanning the request queues and
``BankState`` objects directly, independently of the incremental bookkeeping
(per-bank pending/hit counters, flat bank mirrors, quiet-until cache) the
fast path relies on, so these tests validate that machinery end to end.

The tier-1 tests here run each mitigation mechanism on a tiny fixed-seed
workload; the ``slow`` marker covers the full Table 6 system over several
Figure 10 mixes.

Mode equality alone cannot catch an edit to bookkeeping both modes share
(enqueue, pop accounting, column issue, hit recounts, refresh) that shifts
both modes the same way, so every tier-1 golden run also pins its absolute
outcome: :data:`GOLDEN_DIGESTS` holds a digest of each run's results, and
both modes must reproduce it.
"""

import dataclasses
import hashlib

import pytest

from repro.mitigations.base import MitigationConfig
from repro.mitigations.registry import available_mechanisms, build_mechanism
from repro.sim.config import SystemConfig
from repro.sim.events import NEVER
from repro.sim.system import Simulation
from repro.sim.trace import AggressorTraceGenerator, SyntheticTraceGenerator
from repro.sim.workloads import make_workload_mixes

#: Small system used by the tier-1 golden runs: enough banks and queue depth
#: to exercise conflicts, drains and refreshes in a few thousand cycles.
GOLDEN_SYSTEM = SystemConfig(
    cores=4,
    banks=8,
    rows_per_bank=512,
    read_queue_depth=24,
    write_queue_depth=24,
)

GOLDEN_SEED = 7
#: Long enough to cross at least one tREFI boundary (periodic refresh).
GOLDEN_CYCLES = 10_000

#: :func:`result_digest` of every tier-1 golden run, by run name.  Recorded
#: once; a change that moves one changes simulated behaviour, so never
#: re-record these to make a refactor pass.  The mechanisms that issue no
#: victim refresh at ``hcfirst=2000`` (TWiCe, TWiCe-ideal, Ideal) reproduce
#: the baseline's outcome exactly.
GOLDEN_DIGESTS = {
    "baseline": "d68de3075b341f74",
    "mechanism-IncreasedRefresh": "21c5d392247b1018",
    "mechanism-PARA": "5ec0375dcb8f30db",
    "mechanism-ProHIT": "ed18e73dec98b3e9",
    "mechanism-MRLoc": "82baf5dc4642faab",
    "mechanism-TWiCe": "d68de3075b341f74",
    "mechanism-TWiCe-ideal": "d68de3075b341f74",
    "mechanism-Ideal": "d68de3075b341f74",
    "vulnerable-PARA": "3e3a5260cfd94892",
    "vulnerable-Ideal": "0012815031c797a2",
    "vulnerable-TWiCe-ideal": "35bc36c535f4d455",
    "single-core-0": "6779978334e821e3",
    "single-core-1": "bcde37c663fe655f",
    "single-core-2": "1838dd119b1afadd",
    "single-core-3": "58566c42d2575e02",
    "slow-cpu": "b426f38768edb7fe",
    "slow-cpu-PARA": "e289f18cffa7b3c6",
    "attacker-PARA": "8c8442557907e7b0",
    "refresh-rate-IncreasedRefresh": "21c5d392247b1018",
}


def build_traces(config, cores=None, requests_per_core=800, seed=GOLDEN_SEED):
    mix = make_workload_mixes(num_mixes=1, cores=cores or config.cores, seed=seed)[0]
    return mix.build_traces(
        banks=config.banks,
        rows_per_bank=config.rows_per_bank,
        columns_per_row=config.columns_per_row,
        requests_per_core=requests_per_core,
        seed=seed,
    )


def run_both(
    config,
    traces,
    mitigation_name=None,
    hcfirst=2_000,
    dram_cycles=GOLDEN_CYCLES,
):
    """Run the same workload through the cycle oracle and the event path."""

    def run(step_mode):
        mitigation = None
        if mitigation_name is not None:
            mitigation = build_mechanism(
                mitigation_name,
                MitigationConfig(
                    hcfirst=hcfirst,
                    banks=config.banks,
                    rows_per_bank=config.rows_per_bank,
                    timings=config.timings,
                    seed=GOLDEN_SEED,
                ),
            )
        return Simulation(config, traces, mitigation=mitigation, step_mode=step_mode).run(
            dram_cycles
        )

    return run("cycle"), run("event")


def assert_bit_identical(reference, fast):
    """Every SimulationResult field must match exactly (no tolerance)."""
    assert reference.dram_cycles == fast.dram_cycles
    assert reference.mitigation_name == fast.mitigation_name
    assert reference.core_ipcs == fast.core_ipcs
    assert reference.mitigation_busy_cycles == fast.mitigation_busy_cycles
    assert reference.demand_busy_cycles == fast.demand_busy_cycles
    assert dataclasses.asdict(reference.controller_stats) == dataclasses.asdict(
        fast.controller_stats
    )
    assert len(reference.core_stats) == len(fast.core_stats)
    for ref_core, fast_core in zip(reference.core_stats, fast.core_stats):
        assert dataclasses.asdict(ref_core) == dataclasses.asdict(fast_core)


def result_digest(result):
    """16-hex sha256 of a run's absolute outcome: core IPCs, controller and
    core statistics, and the mitigation and demand busy cycles."""
    material = repr(
        (
            result.core_ipcs,
            dataclasses.astuple(result.controller_stats),
            [dataclasses.astuple(stats) for stats in result.core_stats],
            result.mitigation_busy_cycles,
            result.demand_busy_cycles,
        )
    )
    return hashlib.sha256(material.encode()).hexdigest()[:16]


def assert_golden(name, reference, fast):
    """Both modes agree with each other and with the recorded digest."""
    assert_bit_identical(reference, fast)
    assert result_digest(reference) == GOLDEN_DIGESTS[name], f"{name}: cycle mode moved"
    assert result_digest(fast) == GOLDEN_DIGESTS[name], f"{name}: event mode moved"


class TestGoldenTraces:
    def test_baseline_golden(self):
        traces = build_traces(GOLDEN_SYSTEM)
        reference, fast = run_both(GOLDEN_SYSTEM, traces)
        assert_golden("baseline", reference, fast)
        # The run must have exercised the memory system, not idled through it.
        assert reference.controller_stats.reads_serviced > 0
        assert reference.controller_stats.row_conflicts > 0
        assert reference.controller_stats.refresh_commands > 0

    @pytest.mark.parametrize("mechanism", available_mechanisms())
    def test_mechanism_golden(self, mechanism):
        """Each mitigation mechanism is bit-identical across step modes."""
        traces = build_traces(GOLDEN_SYSTEM)
        reference, fast = run_both(GOLDEN_SYSTEM, traces, mitigation_name=mechanism)
        assert_golden(f"mechanism-{mechanism}", reference, fast)
        assert reference.mitigation_name == fast.mitigation_name != "none"

    @pytest.mark.parametrize("mechanism", ["PARA", "Ideal", "TWiCe-ideal"])
    def test_mechanism_golden_vulnerable_chip(self, mechanism):
        """Low HC_first means constant victim-refresh traffic; still identical."""
        traces = build_traces(GOLDEN_SYSTEM)
        reference, fast = run_both(
            GOLDEN_SYSTEM,
            traces,
            mitigation_name=mechanism,
            hcfirst=8,
        )
        assert_golden(f"vulnerable-{mechanism}", reference, fast)
        assert reference.controller_stats.mitigation_refreshes > 0

    def test_single_core_golden(self):
        """Single-core (alone-IPC) runs take different fast paths; identical."""
        traces = build_traces(GOLDEN_SYSTEM)
        for index, trace in enumerate(traces):
            reference, fast = run_both(GOLDEN_SYSTEM, [trace])
            assert_golden(f"single-core-{index}", reference, fast)

    def test_slow_cpu_golden(self):
        """A CPU clocked below the DRAM bus (ratio < 1) stays bit-identical.

        Some processed DRAM cycles then carry zero CPU ticks, so the tick
        phase is skipped entirely: a core settled on such a cycle must still
        be covered by a wake entry, or the jump logic could batch it across
        a span it has to be ticked exactly in (regression test for exactly
        that hole)."""
        config = SystemConfig(
            cores=4,
            cpu_freq_ghz=0.5,
            banks=8,
            rows_per_bank=512,
            read_queue_depth=24,
            write_queue_depth=24,
        )
        assert config.cpu_cycles_per_dram_cycle < 1
        traces = build_traces(config)
        reference, fast = run_both(config, traces)
        assert_golden("slow-cpu", reference, fast)
        reference, fast = run_both(config, traces, mitigation_name="PARA", hcfirst=512)
        assert_golden("slow-cpu-PARA", reference, fast)

    def test_attacker_trace_golden(self):
        """A RowHammer attacker plus a background core, with PARA active."""
        attacker = AggressorTraceGenerator(
            target_bank=1,
            victim_row=100,
            banks=GOLDEN_SYSTEM.banks,
            rows_per_bank=GOLDEN_SYSTEM.rows_per_bank,
            seed=3,
        ).generate(1_200)
        background = SyntheticTraceGenerator(
            mpki=30,
            banks=GOLDEN_SYSTEM.banks,
            rows_per_bank=GOLDEN_SYSTEM.rows_per_bank,
            seed=4,
        ).generate(800)
        reference, fast = run_both(
            GOLDEN_SYSTEM,
            [attacker, background],
            mitigation_name="PARA",
            hcfirst=512,
        )
        assert_golden("attacker-PARA", reference, fast)

    def test_refresh_rate_scaling_golden(self):
        """IncreasedRefresh rescales tREFI; the horizon must track it."""
        traces = build_traces(GOLDEN_SYSTEM)
        reference, fast = run_both(
            GOLDEN_SYSTEM,
            traces,
            mitigation_name="IncreasedRefresh",
            hcfirst=40_000,
        )
        assert_golden("refresh-rate-IncreasedRefresh", reference, fast)
        assert reference.controller_stats.refresh_commands > 0

    def test_internal_bookkeeping_consistent_after_event_run(self):
        """The fast path's indexed structures must equal scan-derived truth."""
        traces = build_traces(GOLDEN_SYSTEM)
        simulation = Simulation(GOLDEN_SYSTEM, traces, step_mode="event")
        simulation.run(GOLDEN_CYCLES)
        controller = simulation.controller
        stride = controller._row_stride
        for bank_index, bank in enumerate(controller.banks):
            assert controller._bank_open_row[bank_index] == bank.open_row
            assert controller._bank_next_activate[bank_index] == bank.next_activate
            assert controller._bank_next_precharge[bank_index] == bank.next_precharge
            assert controller._bank_next_read[bank_index] == bank.next_read
            assert controller._bank_next_write[bank_index] == bank.next_write
        for queue in (controller.reads, controller.writes):
            live = [r for r in queue.requests if not r.popped]
            assert queue.length == len(live)
            for bank_index, bank in enumerate(controller.banks):
                requests = [r for r in live if r.bank == bank_index]
                hits = [r for r in requests if r.row == bank.open_row]
                assert queue.pending[bank_index] == len(requests)
                assert queue.hits[bank_index] == len(hits)
                # Per-bank FIFOs hold each bank's live requests in arrival order.
                assert [r for r in queue.fifo[bank_index] if not r.popped] == requests
                # Head-of-index sequence mirrors name the oldest live request
                # and the oldest live hit of each bank.
                assert queue.head_seq[bank_index] == (requests[0].seq if requests else NEVER)
                assert queue.hit_seq[bank_index] == (hits[0].seq if hits else NEVER)
            # Row buckets and their live counts agree with a full queue scan.
            by_key = {}
            for request in live:
                by_key.setdefault(request.bank * stride + request.row, []).append(request)
            for key, bucket in queue.rows.items():
                live_bucket = [r for r in bucket if not r.popped]
                assert live_bucket == by_key.get(key, [])
                assert queue.row_count.get(key, 0) == len(live_bucket)


@pytest.mark.slow
class TestGoldenTracesFullSystem:
    """Table 6 system over Figure 10 mixes -- the acceptance-criterion sweep."""

    @pytest.mark.parametrize("mechanism", [None] + available_mechanisms())
    def test_full_system_golden(self, mechanism):
        config = SystemConfig(rows_per_bank=2048)
        mixes = make_workload_mixes(num_mixes=2, cores=config.cores, seed=1)
        hcfirst = 2_000 if mechanism in (None, "ProHIT", "MRLoc") else 50_000
        for mix in mixes:
            traces = mix.build_traces(
                banks=config.banks,
                rows_per_bank=config.rows_per_bank,
                columns_per_row=config.columns_per_row,
                requests_per_core=2_000,
                seed=1,
            )
            reference, fast = run_both(
                config,
                traces,
                mitigation_name=mechanism,
                hcfirst=hcfirst,
                dram_cycles=12_000,
            )
            assert_bit_identical(reference, fast)
