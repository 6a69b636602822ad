"""Ablation benchmarks for design choices of the device model and simulator.

* PARA probability scaling: how the adjacent-row refresh probability (and
  therefore overhead) changes with the target bit error rate.
* On-die ECC on/off: the LPDDR4 behaviours (word density shift, broken
  flip-probability monotonicity) disappear without on-die ECC.
* TWiCe versus TWiCe-ideal: the published design's viability limit.
* Scheduler sensitivity: FR-FCFS row hits versus a row-locality-free
  workload (activation-bound behaviour that stresses mitigation mechanisms).
"""

from conftest import BENCH_GEOMETRY, print_banner

from repro.analysis.report import format_table
from repro.core.calibration import hammer_count_for_flip_rate
from repro.core.probability import ProbabilityStudyConfig, run_flip_probability_study
from repro.core.word_density import (
    WordDensityStudyConfig,
    run_word_density,
    single_flip_fraction,
)
from repro.dram.population import make_chip
from repro.dram.vulnerability import PROFILES, VulnerabilityProfile, profile_for
from repro.mitigations.base import MitigationConfig
from repro.mitigations.para import probability_for
from repro.mitigations.registry import is_evaluable
from repro.mitigations.twice import TWiCe
from repro.sim.config import SystemConfig
from repro.sim.system import Simulation
from repro.sim.timing import DDR4_2400
from repro.sim.workloads import make_workload_mixes


def test_ablation_para_probability_scaling(benchmark):
    """PARA's refresh probability versus HC_first and reliability target."""

    def run():
        table = {}
        for target in (1e-12, 1e-15, 1e-18):
            table[target] = {
                hcfirst: probability_for(hcfirst, DDR4_2400.trc_ns, target)
                for hcfirst in (100_000, 10_000, 1_000, 128)
            }
        return table

    table = benchmark(run)
    print_banner("Ablation: PARA adjacent-row refresh probability")
    rows = []
    for target, series in table.items():
        rows.append([f"BER {target:g}/hour"] + [f"{p:.4f}" for p in series.values()])
    print(format_table(["target", "100k", "10k", "1k", "128"], rows))
    for series in table.values():
        probabilities = list(series.values())
        assert probabilities == sorted(probabilities)  # lower HC_first -> higher p
    assert table[1e-18][128] > table[1e-12][128]


def test_ablation_on_die_ecc(benchmark):
    """LPDDR4 behaviours with the on-die ECC removed from the profile."""
    base_profile = profile_for("LPDDR4-1y", "A")
    no_ecc_profile = VulnerabilityProfile(
        type_node=base_profile.type_node,
        manufacturer=base_profile.manufacturer,
        hcfirst_min_k=base_profile.hcfirst_min_k,
        hcfirst_sigma=base_profile.hcfirst_sigma,
        flip_slope=base_profile.flip_slope,
        rowhammerable_fraction=base_profile.rowhammerable_fraction,
        distance_coupling=dict(base_profile.distance_coupling),
        coupling_classes=base_profile.coupling_classes,
        threshold_noise_sigma=base_profile.threshold_noise_sigma,
        on_die_ecc=False,
        remapper_name=base_profile.remapper_name,
    )

    def run():
        results = {}
        for label, profile in (("with on-die ECC", base_profile), ("without", no_ecc_profile)):
            from repro.dram.chip import DramChip

            chip = DramChip(profile, geometry=BENCH_GEOMETRY, seed=77, hcfirst_target=12_000)
            hammer_count = hammer_count_for_flip_rate(chip, target_rate=5e-3) or 150_000
            density = run_word_density(chip, WordDensityStudyConfig(hammer_count=hammer_count))
            probability = run_flip_probability_study(
                chip,
                ProbabilityStudyConfig(hammer_counts=(50_000, 100_000, 150_000), iterations=4),
            )
            results[label] = (
                single_flip_fraction(density),
                probability.monotonic_fraction,
            )
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    print_banner("Ablation: LPDDR4 on-die ECC on/off")
    rows = [
        [label, round(single, 3), round(monotonic, 3)]
        for label, (single, monotonic) in results.items()
    ]
    print(format_table(["configuration", "single-flip word fraction", "monotonic cell fraction"], rows))
    assert results["without"][0] > results["with on-die ECC"][0]
    assert results["without"][1] >= results["with on-die ECC"][1]


def test_ablation_twice_vs_twice_ideal(benchmark):
    """The published TWiCe design stops being viable below HC_first ~32k."""

    def run():
        rows = []
        for hcfirst in (200_000, 50_000, 32_000, 4_800, 128):
            real = TWiCe(MitigationConfig(hcfirst=hcfirst))
            rows.append(
                (
                    hcfirst,
                    is_evaluable("TWiCe", hcfirst),
                    is_evaluable("TWiCe-ideal", hcfirst),
                    real.row_hammer_threshold,
                )
            )
        return rows

    rows = benchmark(run)
    print_banner("Ablation: TWiCe vs. TWiCe-ideal viability")
    print(format_table(["HC_first", "TWiCe viable", "TWiCe-ideal viable", "tRH"], rows))
    viability = {hcfirst: viable for hcfirst, viable, _ideal, _trh in rows}
    assert viability[200_000] and viability[50_000]
    assert not viability[4_800] and not viability[128]
    assert all(ideal for _hc, _real, ideal, _trh in rows)


def test_ablation_row_locality_sensitivity(benchmark):
    """Row-buffer locality determines how activation-bound a workload is,
    and therefore how much a per-activation mitigation mechanism costs."""
    config = SystemConfig(cores=4, rows_per_bank=4096)
    mixes = make_workload_mixes(num_mixes=1, cores=4, seed=9)

    def run():
        traces = mixes[0].build_traces(
            banks=config.banks,
            rows_per_bank=config.rows_per_bank,
            columns_per_row=config.columns_per_row,
            requests_per_core=2_000,
            seed=0,
        )
        return Simulation(config, traces).run(8_000)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    print_banner("Ablation: FR-FCFS row-hit behaviour under a multi-programmed mix")
    stats = result.controller_stats
    print(
        format_table(
            ["reads", "writes", "activations", "row hits", "avg read latency (cycles)"],
            [[stats.reads_serviced, stats.writes_serviced, stats.demand_activates,
              stats.row_hits, round(stats.average_read_latency, 1)]],
        )
    )
    assert stats.row_hits > 0
    assert stats.demand_activates > 0
