"""The columnar flip record agrees with the per-flip objects it stands for.

:class:`~repro.core.hammer.HammerResult` keeps the neighbourhood read-back
as arrays and builds :class:`~repro.core.hammer.BitFlip` objects only when
``flips`` is read.  The property test checks the arrays, the lazy list and
the counting helpers against a per-bit walk of what a twin chip reads back
after the same writes, refresh and hammers, taken by hand.
The guard test checks that the flip-counting studies never build a
``BitFlip`` at all.
"""

import copy
import dataclasses
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.data_patterns import STANDARD_PATTERNS
from repro.core.hammer import BitFlip, DoubleSidedHammer
from repro.core.probability import ProbabilityStudyConfig
from repro.dram.chip import state_digest
from repro.dram.geometry import ChipGeometry
from repro.dram.population import make_chip
from repro.experiments import ExperimentSession

GEOMETRY = ChipGeometry(banks=1, rows_per_bank=32, row_bytes=16)

#: No on-die ECC (DDR3, DDR4), on-die ECC (LPDDR4-1y) and the
#: paired-wordline remapper with on-die ECC (LPDDR4-1x B).
PROFILES = (("DDR3-new", "C"), ("DDR4-new", "A"), ("LPDDR4-1x", "B"), ("LPDDR4-1y", "A"))

_PRISTINE = {}


def pristine_chip(profile):
    """A fresh copy of one very vulnerable chip per profile."""
    if profile not in _PRISTINE:
        _PRISTINE[profile] = make_chip(*profile, seed=5, geometry=GEOMETRY, hcfirst_target=8_000)
    return copy.deepcopy(_PRISTINE[profile])


def pattern_byte(chip, victim, row, pattern):
    """The byte a pattern writes to ``row``: the wordline-parity rule, restated."""
    wordline = chip.remapper.logical_to_physical
    same_parity = (wordline(row) - wordline(victim)) % 2 == 0
    return pattern.victim_byte if same_parity else pattern.aggressor_byte


def walk_flips(chip, bank, victim, pattern, rows, observed):
    """Every read-back bit that differs from the written one, bit by bit."""
    flips = []
    for row, row_bytes in zip(rows, observed):
        written = pattern_byte(chip, victim, row, pattern)
        for bit in range(8 * len(row_bytes)):
            shift = 7 - bit % 8
            expected_bit = (written >> shift) & 1
            observed_bit = (int(row_bytes[bit // 8]) >> shift) & 1
            if observed_bit != expected_bit:
                flips.append(BitFlip(bank, row, bit, row - victim, expected_bit, observed_bit))
    return flips


@settings(max_examples=40, deadline=None)
@given(
    profile=st.sampled_from(PROFILES),
    victim=st.integers(min_value=0, max_value=GEOMETRY.rows_per_bank - 1),
    hammer_count=st.integers(min_value=1_000, max_value=150_000),
    pattern=st.sampled_from(STANDARD_PATTERNS),
    word_bits=st.sampled_from((8, 48, 64, 128)),
)
def test_arrays_match_a_per_bit_walk(profile, victim, hammer_count, pattern, word_bits):
    chip = pristine_chip(profile)
    twin = copy.deepcopy(chip)
    hammer = DoubleSidedHammer(chip)
    result = hammer.hammer_victim(0, victim, hammer_count, data_pattern=pattern)

    # The twin takes Algorithm 1's steps by hand: write the pattern around
    # the victim, refresh the victim, hammer its aggressors, read back.
    rows = hammer.neighbourhood(victim)
    twin.write_rows(0, rows, [pattern_byte(twin, victim, row, pattern) for row in rows])
    twin.refresh_row(0, victim)
    aggressors = [
        row for row in twin.remapper.aggressors_for(victim) if 0 <= row < GEOMETRY.rows_per_bank
    ]
    if len(aggressors) >= 2:
        twin.hammer_pair(0, aggressors[0], aggressors[-1], hammer_count)
    elif aggressors:
        twin.activate(0, aggressors[0], hammer_count)
    observed = twin.read_rows(0, rows)

    assert result.rows.tolist() == rows
    flips = walk_flips(twin, 0, victim, pattern, rows, observed)
    assert result.flips == flips
    assert result.num_bit_flips == len(flips)
    assert {
        row - victim: int(count) for row, count in zip(rows, result.diff.sum(axis=1)) if count
    } == Counter(f.offset_from_victim for f in flips)
    words = result.word_flip_counts(word_bits)
    by_word = Counter((f.row, f.bit_index // word_bits) for f in flips)
    assert {
        (row, word): int(words[i, word])
        for i, row in enumerate(rows)
        for word in range(words.shape[1])
        if words[i, word]
    } == by_word

    # Restoring rewrites exactly the rows the objects place flips in.
    flipped_rows = sorted({flip.row for flip in flips})
    if flipped_rows:
        twin.write_rows(
            0, flipped_rows, [pattern_byte(twin, victim, row, pattern) for row in flipped_rows]
        )
    assert dataclasses.asdict(chip.stats) == dataclasses.asdict(twin.stats)
    assert state_digest(chip) == state_digest(twin)


#: The studies that count flips: each must count on the arrays alone.
COUNTING_STUDIES = {
    "fig4-coverage": None,
    "fig5-hc-sweep": None,
    "fig6-spatial": None,
    "fig7-word-density": None,
    "fig8-hcfirst": None,
    "fig9-ecc-words": None,
    "table5-flip-probability": ProbabilityStudyConfig(
        hammer_counts=(50_000, 100_000, 150_000), iterations=2
    ),
}


@pytest.fixture
def no_bit_flips(monkeypatch):
    """Make building a BitFlip fail for the duration of a test."""

    def refuse(self, *args, **kwargs):
        raise AssertionError("a BitFlip object was built")

    monkeypatch.setattr(BitFlip, "__init__", refuse)


@pytest.mark.parametrize("study", sorted(COUNTING_STUDIES))
def test_counting_studies_build_no_bit_flip(no_bit_flips, study):
    chip = pristine_chip(("LPDDR4-1y", "A"))
    result = DoubleSidedHammer(copy.deepcopy(chip)).hammer_victim(0, 16, 150_000)
    assert result.num_bit_flips > 0
    with pytest.raises(AssertionError, match="BitFlip"):
        result.flips

    ExperimentSession(chip).run(study, COUNTING_STUDIES[study])
    # The session runs each unit on a copy and folds its counters back.
    assert chip.stats.bit_flips_induced > 0
