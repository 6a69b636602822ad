"""Figure 10: mitigation-mechanism overhead as HC_first decreases.

Regenerates both panels -- (a) DRAM bandwidth overhead and (b) normalized
system performance -- for the five state-of-the-art mechanisms and the ideal
refresh-based mechanism, sweeping HC_first from 200k down to 64.

The simulated interval is much shorter than the paper's 200M-instruction
runs, so absolute overheads differ (run with ``-s`` to print the regenerated
panels); the qualitative results the paper draws its conclusions from are
asserted below.

The sweep runs on the event-driven simulator fast path (the default
``step_mode``), which is bit-identical to the cycle-by-cycle reference --
see ``tests/sim/test_golden_trace.py`` and ``benchmarks/bench_sim_speed.py``
for the equivalence and speedup evidence.

The study executes *sharded* through an :class:`repro.ExperimentSession`:
one work unit per workload-mix baseline and per (mechanism, HC_first, mix)
cell, cached individually in a :class:`repro.ResultStore` -- the timed run
is the fresh sharded sweep, and a replay afterwards asserts the unit cache
reproduces it bit-identically without executing a single unit.
"""

from conftest import print_banner

from repro.analysis.mitigation_study import MitigationStudyConfig
from repro.analysis.report import format_table
from repro.experiments import ExperimentSession, ResultStore

HCFIRST_SWEEP = (200_000, 50_000, 25_600, 6_400, 2_000, 1_024, 256, 128, 64)
MECHANISMS = ("IncreasedRefresh", "PARA", "ProHIT", "MRLoc", "TWiCe", "TWiCe-ideal", "Ideal")


def test_fig10_mitigation_scaling(benchmark):
    config = MitigationStudyConfig(
        hcfirst_values=HCFIRST_SWEEP,
        mechanisms=MECHANISMS,
        num_mixes=3,
        rows_per_bank=4096,
        dram_cycles=10_000,
        requests_per_core=2_500,
        seed=5,
    )
    store = ResultStore()  # in-memory: cache shared by the replay below

    def run():
        return ExperimentSession(store=store, seed=5).run("fig10-mitigations", config)

    outcome = benchmark.pedantic(run, rounds=1, iterations=1)
    study = outcome.single()

    # The sweep really ran sharded: every (mechanism, HC_first, mix) cell
    # plus one baseline per mix is its own cached work unit...
    assert outcome.units_total == outcome.executed > len(study.points)
    # ...and a replayed session merges the identical payload from the unit
    # cache without executing anything.
    replay = ExperimentSession(store=store, seed=5).run("fig10-mitigations", config)
    assert replay.executed == 0
    assert replay.cache_hits == outcome.units_total
    assert [p.to_dict() for p in replay.single().points] == [
        p.to_dict() for p in study.points
    ]

    print_banner("Figure 10a: DRAM bandwidth overhead of RowHammer mitigation (%)")
    rows = []
    for mechanism in MECHANISMS:
        series = study.series_for(mechanism)
        rows.append(
            [mechanism]
            + [
                round(series[hc].bandwidth_overhead_avg, 2) if hc in series else "-"
                for hc in HCFIRST_SWEEP
            ]
        )
    print(format_table(["mechanism"] + [str(hc) for hc in HCFIRST_SWEEP], rows))

    print_banner("Figure 10b: normalized system performance (%)")
    rows = []
    for mechanism in MECHANISMS:
        series = study.series_for(mechanism)
        rows.append(
            [mechanism]
            + [
                round(series[hc].normalized_performance_avg, 1) if hc in series else "-"
                for hc in HCFIRST_SWEEP
            ]
        )
    print(format_table(["mechanism"] + [str(hc) for hc in HCFIRST_SWEEP], rows))

    para = study.series_for("PARA")
    ideal = study.series_for("Ideal")

    # PARA's overhead grows monotonically as chips become more vulnerable,
    # and becomes severe at the projected future HC_first values.
    performances = [para[hc].normalized_performance_avg for hc in HCFIRST_SWEEP]
    assert all(b <= a + 1.0 for a, b in zip(performances, performances[1:]))
    assert para[64].normalized_performance_avg < para[2_000].normalized_performance_avg
    assert para[64].bandwidth_overhead_avg > 10.0

    # The ideal refresh-based mechanism stays close to baseline performance
    # even at very low HC_first, and always beats PARA there (Section 6.2.2).
    assert ideal[64].normalized_performance_avg >= 95.0
    assert ideal[64].normalized_performance_avg >= para[64].normalized_performance_avg

    # ProHIT and MRLoc are only evaluated at HC_first = 2000 (Section 6.1)
    # where their overhead is small.
    for mechanism in ("ProHIT", "MRLoc"):
        series = study.series_for(mechanism)
        assert set(series) == {2_000}
        assert series[2_000].normalized_performance_avg >= 90.0

    # The increased refresh rate and (non-ideal) TWiCe do not scale below 32k.
    assert all(hc >= 32_000 for hc in study.series_for("IncreasedRefresh"))
    assert all(hc >= 32_000 for hc in study.series_for("TWiCe"))
