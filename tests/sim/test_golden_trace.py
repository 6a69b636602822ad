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
"""

import dataclasses

import pytest

from repro.mitigations.base import MitigationConfig
from repro.mitigations.registry import available_mechanisms, build_mechanism
from repro.sim.config import SystemConfig
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
#: The fast path every golden is pinned against the cycle oracle.
FAST_MODES = ("event",)
#: Long enough to cross at least one tREFI boundary (periodic refresh).
GOLDEN_CYCLES = 10_000


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
    fast_mode="event",
):
    """Run the same workload through the cycle oracle and one fast path."""

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

    return run("cycle"), run(fast_mode)


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


@pytest.mark.parametrize("fast_mode", FAST_MODES)
class TestGoldenTraces:
    def test_baseline_golden(self, fast_mode):
        traces = build_traces(GOLDEN_SYSTEM)
        reference, fast = run_both(GOLDEN_SYSTEM, traces, fast_mode=fast_mode)
        assert_bit_identical(reference, fast)
        # The run must have exercised the memory system, not idled through it.
        assert reference.controller_stats.reads_serviced > 0
        assert reference.controller_stats.row_conflicts > 0
        assert reference.controller_stats.refresh_commands > 0

    @pytest.mark.parametrize("mechanism", available_mechanisms())
    def test_mechanism_golden(self, mechanism, fast_mode):
        """Each mitigation mechanism is bit-identical across step modes."""
        traces = build_traces(GOLDEN_SYSTEM)
        reference, fast = run_both(
            GOLDEN_SYSTEM, traces, mitigation_name=mechanism, fast_mode=fast_mode
        )
        assert_bit_identical(reference, fast)
        assert reference.mitigation_name == fast.mitigation_name != "none"

    @pytest.mark.parametrize("mechanism", ["PARA", "Ideal", "TWiCe-ideal"])
    def test_mechanism_golden_vulnerable_chip(self, mechanism, fast_mode):
        """Low HC_first means constant victim-refresh traffic; still identical."""
        traces = build_traces(GOLDEN_SYSTEM)
        reference, fast = run_both(
            GOLDEN_SYSTEM,
            traces,
            mitigation_name=mechanism,
            hcfirst=8,
            fast_mode=fast_mode,
        )
        assert_bit_identical(reference, fast)
        assert reference.controller_stats.mitigation_refreshes > 0

    def test_single_core_golden(self, fast_mode):
        """Single-core (alone-IPC) runs take different fast paths; identical."""
        traces = build_traces(GOLDEN_SYSTEM)
        for trace in traces:
            reference, fast = run_both(GOLDEN_SYSTEM, [trace], fast_mode=fast_mode)
            assert_bit_identical(reference, fast)

    def test_slow_cpu_golden(self, fast_mode):
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
        reference, fast = run_both(config, traces, fast_mode=fast_mode)
        assert_bit_identical(reference, fast)
        reference, fast = run_both(
            config, traces, mitigation_name="PARA", hcfirst=512, fast_mode=fast_mode
        )
        assert_bit_identical(reference, fast)

    def test_attacker_trace_golden(self, fast_mode):
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
            fast_mode=fast_mode,
        )
        assert_bit_identical(reference, fast)

    def test_refresh_rate_scaling_golden(self, fast_mode):
        """IncreasedRefresh rescales tREFI; the horizon must track it."""
        traces = build_traces(GOLDEN_SYSTEM)
        reference, fast = run_both(
            GOLDEN_SYSTEM,
            traces,
            mitigation_name="IncreasedRefresh",
            hcfirst=40_000,
            fast_mode=fast_mode,
        )
        assert_bit_identical(reference, fast)
        assert reference.controller_stats.refresh_commands > 0

    def test_internal_bookkeeping_consistent_after_event_run(self, fast_mode):
        """The fast path's indexed structures must equal scan-derived truth."""
        traces = build_traces(GOLDEN_SYSTEM)
        simulation = Simulation(GOLDEN_SYSTEM, traces, step_mode=fast_mode)
        simulation.run(GOLDEN_CYCLES)
        controller = simulation.controller
        live_reads = controller.queued_reads()
        live_writes = controller.queued_writes()
        assert controller.read_len == len(live_reads)
        assert controller.write_len == len(live_writes)
        from repro.sim.events import NEVER

        stride = controller._row_stride
        for bank_index, bank in enumerate(controller.banks):
            assert controller._bank_open_row[bank_index] == bank.open_row
            assert controller._bank_next_activate[bank_index] == bank.next_activate
            assert controller._bank_next_precharge[bank_index] == bank.next_precharge
            assert controller._bank_next_read[bank_index] == bank.next_read
            assert controller._bank_next_write[bank_index] == bank.next_write
            reads = [r for r in live_reads if r.bank == bank_index]
            writes = [w for w in live_writes if w.bank == bank_index]
            assert controller._read_pending[bank_index] == len(reads)
            assert controller._write_pending[bank_index] == len(writes)
            read_hits = [r for r in reads if r.row == bank.open_row]
            write_hits = [w for w in writes if w.row == bank.open_row]
            assert controller._read_hits[bank_index] == len(read_hits)
            assert controller._write_hits[bank_index] == len(write_hits)
            # Per-bank FIFOs hold each bank's live requests in arrival order.
            fifo_reads = [r for r in controller._read_fifo[bank_index] if not r.popped]
            fifo_writes = [w for w in controller._write_fifo[bank_index] if not w.popped]
            assert fifo_reads == reads
            assert fifo_writes == writes
            # Head-of-index sequence mirrors name the oldest live request and
            # the oldest live hit of each bank.
            assert controller._read_head_seq[bank_index] == (
                reads[0].seq if reads else NEVER
            )
            assert controller._write_head_seq[bank_index] == (
                writes[0].seq if writes else NEVER
            )
            assert controller._read_hit_seq[bank_index] == (
                read_hits[0].seq if read_hits else NEVER
            )
            assert controller._write_hit_seq[bank_index] == (
                write_hits[0].seq if write_hits else NEVER
            )
        # Row buckets and their live counts agree with a full queue scan.
        for queue, rows, counts in (
            (live_reads, controller._read_rows, controller._read_row_count),
            (live_writes, controller._write_rows, controller._write_row_count),
        ):
            by_key = {}
            for request in queue:
                by_key.setdefault(request.bank * stride + request.row, []).append(request)
            for key, bucket in rows.items():
                live = [r for r in bucket if not r.popped]
                assert live == by_key.get(key, [])
                assert counts.get(key, 0) == len(live)


@pytest.mark.slow
class TestGoldenTracesFullSystem:
    """Table 6 system over Figure 10 mixes -- the acceptance-criterion sweep."""

    @pytest.mark.parametrize("fast_mode", FAST_MODES)
    @pytest.mark.parametrize("mechanism", [None] + available_mechanisms())
    def test_full_system_golden(self, mechanism, fast_mode):
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
                fast_mode=fast_mode,
            )
            assert_bit_identical(reference, fast)
