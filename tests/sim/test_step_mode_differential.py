"""Event-vs-cycle differential suite (hypothesis).

Random trace soups over random system geometries and mechanism draws run
through both execution paths -- the event-driven fast path and the
``step_mode="cycle"`` oracle -- asserting bit-identical statistics.  A
separate adversarial class drives refresh-boundary and tFAW-pressure
schedules: request bursts timed at ``n * tREFI`` edges (with a
fast-refresh timing variant so runs cross many boundaries), runs that end
exactly on / one before / one after a boundary, and zero-bubble
round-robin activate storms.
"""

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mitigations.base import MitigationConfig
from repro.mitigations.registry import available_mechanisms, build_mechanism
from repro.sim.config import SystemConfig
from repro.sim.system import Simulation
from repro.sim.timing import DramTimings
from repro.sim.trace import TraceRecord

#: Fast-refresh timings: boundaries every 500 cycles instead of 9360, so a
#: short differential run crosses many refresh windows.
FAST_REFRESH = dataclasses.replace(DramTimings(), trefi=500, trfc=60)

MECHANISMS = available_mechanisms()


def fingerprint(result):
    return (
        result.dram_cycles,
        tuple(result.core_ipcs),
        dataclasses.astuple(result.controller_stats),
        tuple(dataclasses.astuple(stats) for stats in result.core_stats),
        result.mitigation_busy_cycles,
        result.demand_busy_cycles,
        result.mitigation_name,
    )


def build_mitigation(config, mechanism_name, hcfirst, seed):
    if mechanism_name is None:
        return None
    return build_mechanism(
        mechanism_name,
        MitigationConfig(
            hcfirst=hcfirst,
            banks=config.banks,
            rows_per_bank=config.rows_per_bank,
            timings=config.timings,
            seed=seed,
        ),
    )


def assert_modes_identical(config, traces, mechanism_name, hcfirst, seed, cycles):
    """The event path and the cycle oracle give identical fingerprints."""
    event, cycle = (
        fingerprint(
            Simulation(
                config,
                traces,
                mitigation=build_mitigation(config, mechanism_name, hcfirst, seed),
                step_mode=mode,
            ).run(cycles)
        )
        for mode in ("event", "cycle")
    )
    assert event == cycle


@st.composite
def system_and_soup(draw):
    """A random small system plus one random trace soup per core."""
    banks = draw(st.sampled_from([2, 4, 8]))
    rows = draw(st.sampled_from([64, 128, 256]))
    config = SystemConfig(
        cores=draw(st.integers(1, 3)),
        cpu_freq_ghz=draw(st.sampled_from([0.5, 1.7, 4.0])),
        banks=banks,
        rows_per_bank=rows,
        columns_per_row=32,
        read_queue_depth=draw(st.sampled_from([4, 8, 16])),
        write_queue_depth=draw(st.sampled_from([4, 8, 16])),
        instruction_window=draw(st.sampled_from([8, 32, 128])),
    )
    record = st.builds(
        TraceRecord,
        bubble_instructions=st.integers(0, 40),
        bank=st.integers(0, banks - 1),
        row=st.integers(0, rows - 1),
        column=st.integers(0, 31),
        is_write=st.booleans(),
    )
    traces = [
        draw(st.lists(record, min_size=5, max_size=40)) for _ in range(config.cores)
    ]
    mechanism = draw(st.sampled_from([None] + MECHANISMS))
    hcfirst = draw(st.sampled_from([8, 200, 2_000]))
    seed = draw(st.integers(0, 2**16))
    return config, traces, mechanism, hcfirst, seed


class TestRandomSoups:
    @settings(max_examples=25, deadline=None)
    @given(system_and_soup())
    def test_random_soup_all_modes_identical(self, drawn):
        config, traces, mechanism, hcfirst, seed = drawn
        assert_modes_identical(config, traces, mechanism, hcfirst, seed, 2_000)


def burst_trace(banks, rows, start_bubbles, burst_len, stride=1):
    """A quiet lead-in then a zero-bubble burst (refresh/tFAW pressure)."""
    records = [
        TraceRecord(
            bubble_instructions=start_bubbles,
            bank=0,
            row=1,
            column=0,
            is_write=False,
        )
    ]
    for index in range(burst_len):
        records.append(
            TraceRecord(
                bubble_instructions=0,
                bank=(index * stride) % banks,
                row=(index * 7) % rows,
                column=index % 32,
                is_write=index % 5 == 4,
            )
        )
    return records


class TestAdversarialBoundaries:
    """Schedules aimed at refresh-window and tFAW edges."""

    CONFIG = SystemConfig(
        cores=2,
        banks=4,
        rows_per_bank=128,
        columns_per_row=32,
        read_queue_depth=8,
        write_queue_depth=8,
        timings=FAST_REFRESH,
    )

    @settings(max_examples=20, deadline=None)
    @given(
        offset=st.integers(-30, 30),
        boundary=st.integers(1, 4),
        mechanism=st.sampled_from([None, "PARA", "TWiCe", "IncreasedRefresh"]),
    )
    def test_burst_at_refresh_boundary(self, offset, boundary, mechanism):
        """A zero-bubble burst landing around ``n * tREFI + offset``."""
        config = self.CONFIG
        trefi = config.timings.trefi
        ratio = config.cpu_cycles_per_dram_cycle
        # Lead-in bubbles that put the burst's arrival near the boundary.
        lead = max(0, int((boundary * trefi + offset) * ratio) * config.issue_width)
        traces = [
            burst_trace(config.banks, config.rows_per_bank, lead, 40, stride=1),
            burst_trace(config.banks, config.rows_per_bank, lead, 40, stride=3),
        ]
        assert_modes_identical(config, traces, mechanism, 200, 0, 3 * trefi)

    @settings(max_examples=12, deadline=None)
    @given(end_offset=st.integers(-2, 2), boundary=st.integers(1, 3))
    def test_run_ends_at_refresh_boundary(self, end_offset, boundary):
        """Runs ending exactly on / just around a refresh boundary."""
        config = self.CONFIG
        cycles = boundary * config.timings.trefi + end_offset
        traces = [
            burst_trace(config.banks, config.rows_per_bank, 0, 60, stride=1),
            burst_trace(config.banks, config.rows_per_bank, 200, 60, stride=2),
        ]
        assert_modes_identical(config, traces, "PARA", 64, 1, cycles)

    def test_tfaw_activate_storm(self):
        """Zero-bubble round-robin over all banks with no row reuse: every
        issue is an activate, so rank tRRD/tFAW admission gates the run."""
        config = self.CONFIG
        traces = [
            [
                TraceRecord(
                    bubble_instructions=0,
                    bank=index % config.banks,
                    row=(index * 11) % config.rows_per_bank,
                    column=0,
                    is_write=False,
                )
                for index in range(150)
            ]
            for _ in range(2)
        ]
        assert_modes_identical(config, traces, None, 2_000, 0, 2_500)
