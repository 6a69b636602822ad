"""Shared utilities: deterministic RNG streams and statistics."""

from repro.utils.rng import derive_seed, make_rng
from repro.utils.stats import BoxStats, box_stats

__all__ = [
    "derive_seed",
    "make_rng",
    "BoxStats",
    "box_stats",
]
