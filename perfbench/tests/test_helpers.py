"""Tests of the benchmark's own helpers.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

import pytest
from conftest import BENCH, ROOT

from layers import instrument, layer_metrics
from metrics import BY_NAME, PER_LAYER, benchmark_json
from spans import SpanRecorder, self_times
from stats import quartile_spread, tail_percentile


# ----------------------------------------------------------------------
# Span self time
# ----------------------------------------------------------------------
def test_self_time_subtracts_child_coverage_once_and_clips_children():
    # root [0, 10]: children [1, 3] and [2, 4] overlap (cover 3 s together),
    # [9, 12] sticks out of the root (covers 1 s of it); the grandchild
    # [1.5, 2.5] is its parent's business only.
    parents = [-1, 0, 0, 0, 1]
    starts = [0.0, 1.0, 2.0, 9.0, 1.5]
    ends = [10.0, 3.0, 4.0, 12.0, 2.5]
    assert self_times(parents, starts, ends) == pytest.approx([6.0, 1.0, 2.0, 3.0, 1.0])


class _Base:
    def inherited(self, x):
        return x + 1


class _Layered(_Base):
    def outer(self, n):
        return sum(self.inner(i) for i in range(n)) + self.inherited(0)

    def inner(self, i):
        return i


def test_wrapped_calls_nest_and_self_times_sum_to_the_root():
    rec = SpanRecorder()
    rec.wrap(_Layered, "outer", "outer")
    rec.wrap(_Layered, "inner", "inner", after=lambda _i, result, *a: rec.counters.update(inner=1))
    rec.wrap(_Layered, "inherited", "inherited")
    try:
        with rec.span("root") as root:
            assert _Layered().outer(3) == 0 + 1 + 2 + 1
    finally:
        rec.restore()
    assert rec.names == ["root", "outer", "inner", "inner", "inner", "inherited"]
    assert rec.parents == [-1, 0, 1, 1, 1, 1]
    assert rec.counters["inner"] == 3
    selfs = rec.self_times()
    assert sum(selfs) == pytest.approx(rec.ends[root] - rec.starts[root])
    assert all(s >= 0 for s in selfs)
    summary = rec.summary(window=1)
    assert summary["inner"]["count"] == 3 and "root" not in summary
    # restore() puts back the class's own attributes and removes the
    # shadowing one added over an inherited method.
    assert "inherited" not in _Layered.__dict__
    assert _Layered.outer.__name__ == "outer" and not hasattr(_Layered.outer, "__wrapped__")


# ----------------------------------------------------------------------
# Percentiles and spread
# ----------------------------------------------------------------------
@pytest.mark.parametrize("n", [11, 12, 36, 2304])
def test_tail_percentile_keeps_ten_samples_beyond(n):
    values = [float(v) for v in range(n)]
    percentile, value = tail_percentile(values)
    assert sum(v > value for v in values) == 10
    assert percentile == pytest.approx(100.0 * (n - 10) / n)


def test_tail_percentile_needs_eleven_samples():
    assert tail_percentile([1.0] * 10) is None
    assert tail_percentile([3.0, 1.0, 2.0] * 4) == (pytest.approx(100 * 2 / 12), 1.0)


def test_quartile_spread_matches_the_acceptance_estimator():
    values = [1.0, 1.1, 0.9, 1.05, 1.2, 0.95, 1.0, 1.3, 0.85, 1.02]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert quartile_spread(values) == pytest.approx((q3 - q1) / statistics.median(values))


# ----------------------------------------------------------------------
# Payload digests
# ----------------------------------------------------------------------
_DIGEST_SCRIPT = """
import json, sys
sys.path.insert(0, sys.argv[1])
from repro.analysis.mitigation_study import MitigationStudyConfig
from repro.experiments import ExperimentSession
from workloads import payload_digest
charz = ExperimentSession.from_table1(
    chips_per_config=1, seed=7, configurations=[("DDR4-new", "A")]
).run("fig8-hcfirst")
grid = ExperimentSession().run("fig10-mitigations", MitigationStudyConfig(
    hcfirst_values=(2000,), mechanisms=("PARA",), num_mixes=1, rows_per_bank=512,
    dram_cycles=200, requests_per_core=50))
print(json.dumps([payload_digest(charz), payload_digest(grid)]))
"""


def test_payload_digests_are_stable_across_processes():
    digests = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED=hash_seed)
        out = subprocess.run(
            [sys.executable, "-c", _DIGEST_SCRIPT, str(BENCH)],
            env=env, capture_output=True, text=True, check=True, timeout=120,
        )
        digests.append(json.loads(out.stdout.strip().splitlines()[-1]))
    assert digests[0] == digests[1]
    assert all(len(d) == 16 for d in digests[0])


# ----------------------------------------------------------------------
# Metric table, BENCHMARK.json and the instrumentation agree
# ----------------------------------------------------------------------
def test_benchmark_json_matches_the_metric_table():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert declared == benchmark_json(declared["run_seconds"])
    for metric in BY_NAME.values():
        assert metric.layer and metric.moves


def test_instrumentation_reports_every_per_layer_metric_and_restores():
    from repro.analysis.mitigation_study import MitigationStudyConfig
    from repro.experiments import ExperimentSession
    from repro.experiments.session import ExperimentSession as Session

    original_run = Session.run
    rec = SpanRecorder()
    instrument(rec)
    try:
        with rec.span("bench.op"):
            ExperimentSession().run(
                "fig10-mitigations",
                MitigationStudyConfig(
                    hcfirst_values=(2000,), mechanisms=("PARA",), num_mixes=1,
                    rows_per_bank=512, dram_cycles=200, requests_per_core=50,
                ),
            )
            ExperimentSession.from_table1(
                chips_per_config=1, seed=7, configurations=[("LPDDR4-1x", "A")]
            ).run("fig8-hcfirst")
    finally:
        rec.restore()
    assert Session.run is original_run
    metrics = layer_metrics(rec)
    assert set(metrics) | {"tracing_overhead_s"} == {m.name for m in PER_LAYER}
    assert metrics["executors.units_executed"] == 3  # baseline, PARA cell, fig8 chip
    assert metrics["sim.trace_builds"] == 1
    assert metrics["study.fig8_s"] > 0 and metrics["hammer.victims"] > 0
    assert metrics["ecc.encode_s"] > 0 and metrics["ecc.decode_s"] > 0
    assert metrics["sim.cycles"] == 200 * (1 + 8 + 1)  # baseline, 8 alone runs, cell
    assert 0 <= metrics["trace.unattributed_s"] < 0.05
