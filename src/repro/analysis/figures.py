"""Builders for the paper's figures (4 through 9).

Each builder aggregates per-chip study results into the series the figure
plots, keyed by (type-node, manufacturer) configuration.  The benchmark
harnesses print these series; they are also convenient for plotting with any
external tool.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.ecc_analysis import aggregate_hc_and_multipliers
from repro.core.first_flip import HCFirstResult
from repro.core.results import (
    CoverageResult,
    EccWordAnalysis,
    SpatialResult,
    SweepResult,
    WordDensityResult,
)
from repro.core.spatial import aggregate_fraction_by_offset
from repro.core.sweeps import average_flip_rates
from repro.core.word_density import aggregate_fraction_by_flip_count
from repro.utils.stats import BoxStats, box_stats

ConfigKey = Tuple[str, str]


def _group_by_config(results: Iterable) -> Dict[ConfigKey, List]:
    grouped: Dict[ConfigKey, List] = {}
    for result in results:
        grouped.setdefault((result.type_node, result.manufacturer), []).append(result)
    return grouped


def build_figure4_coverage(
    coverage_results: Iterable[CoverageResult],
) -> Dict[ConfigKey, Dict[str, float]]:
    """Figure 4: per-data-pattern coverage (%) for each configuration.

    When several chips of one configuration are supplied their coverages are
    averaged (the paper plots a single representative chip).
    """
    grouped = _group_by_config(coverage_results)
    figure: Dict[ConfigKey, Dict[str, float]] = {}
    for key, results in grouped.items():
        pattern_names: List[str] = []
        for result in results:
            for name in result.coverage_by_pattern:
                if name not in pattern_names:
                    pattern_names.append(name)
        figure[key] = {
            name: 100.0
            * sum(result.coverage_by_pattern.get(name, 0.0) for result in results)
            / len(results)
            for name in pattern_names
        }
    return figure


def build_figure5_hc_sweep(
    sweeps: Iterable[SweepResult],
) -> Dict[ConfigKey, Dict[int, float]]:
    """Figure 5: average bit-flip rate versus hammer count per configuration."""
    grouped = _group_by_config(sweeps)
    return {key: average_flip_rates(results) for key, results in grouped.items()}


def build_figure6_spatial(
    spatial_results: Iterable[SpatialResult],
) -> Dict[ConfigKey, Dict[int, Dict[str, float]]]:
    """Figure 6: fraction of flips per row offset (mean and stddev) per configuration."""
    grouped = _group_by_config(spatial_results)
    return {key: aggregate_fraction_by_offset(results) for key, results in grouped.items()}


def build_figure7_word_density(
    density_results: Iterable[WordDensityResult],
) -> Dict[ConfigKey, Dict[int, Dict[str, float]]]:
    """Figure 7: fraction of 64-bit words containing N flips per configuration."""
    grouped = _group_by_config(density_results)
    return {key: aggregate_fraction_by_flip_count(results) for key, results in grouped.items()}


def build_figure8_hcfirst_distribution(
    results: Iterable[HCFirstResult],
) -> Dict[ConfigKey, Optional[BoxStats]]:
    """Figure 8: box-and-whisker distribution of ``HC_first`` per configuration.

    Chips that did not flip within the test limit are excluded, matching the
    "No Bit Flips" annotations in the paper's figure; a configuration with
    no flipping chips at all maps to ``None``.
    """
    grouped = _group_by_config(results)
    figure: Dict[ConfigKey, Optional[BoxStats]] = {}
    for key, config_results in grouped.items():
        values = [r.hcfirst for r in config_results if r.hcfirst is not None]
        figure[key] = box_stats(values) if values else None
    return figure


def build_figure9_ecc(
    analyses: Iterable[EccWordAnalysis],
) -> Dict[ConfigKey, Dict[str, Dict[int, Dict[str, float]]]]:
    """Figure 9: HC to the first word with N flips, and the HC multipliers.

    N runs over the per-word flip counts the analyses measured (1, 2 and 3
    by default; see :class:`repro.core.ecc_analysis.EccWordStudyConfig`).
    """
    grouped = _group_by_config(analyses)
    return {key: aggregate_hc_and_multipliers(results) for key, results in grouped.items()}
