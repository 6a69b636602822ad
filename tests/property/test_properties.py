"""Property-based tests (hypothesis) for core data structures and invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.search import descend_and_search, minimal_hammer_count
from repro.dram.geometry import ChipGeometry
from repro.dram.population import make_chip
from repro.ecc.hamming import HammingCode
from repro.mitigations.base import MitigationConfig
from repro.mitigations.ideal import IdealRefresh
from repro.utils.rng import make_rng
from repro.utils.stats import box_stats

GEOMETRY = ChipGeometry(banks=1, rows_per_bank=32, row_bytes=32)


class TestBoxStatsProperties:
    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1, max_size=60))
    def test_ordering_invariants(self, values):
        stats = box_stats(values)
        assert stats.minimum <= stats.first_quartile <= stats.median
        assert stats.median <= stats.third_quartile <= stats.maximum
        assert stats.lower_whisker >= stats.minimum
        assert stats.upper_whisker <= stats.maximum
        assert stats.count == len(values)


class TestHammingProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        data=st.lists(st.integers(0, 1), min_size=32, max_size=32),
        error_position=st.integers(min_value=0, max_value=37),
    )
    def test_single_error_always_corrected(self, data, error_position):
        code = HammingCode(32)
        word = np.array([data], dtype=np.uint8)
        corrupted = code.encode_many(word)
        corrupted[0, error_position % code.codeword_bits] ^= 1
        decoded, _detected, _positions = code.decode_many(corrupted)
        assert np.array_equal(decoded, word)


    @settings(max_examples=30, deadline=None)
    @given(
        data_bits=st.integers(min_value=1, max_value=140),
        words=st.integers(min_value=1, max_value=8),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_clean_round_trip(self, data_bits, words, seed):
        code = HammingCode(data_bits)
        data = make_rng(seed).integers(0, 2, (words, data_bits)).astype(np.uint8)
        decoded, detected, positions = code.decode_many(code.encode_many(data))
        assert np.array_equal(decoded, data)
        assert not detected.any()
        assert not positions.any()


class TestSearchProperties:
    @settings(max_examples=40, deadline=None)
    @given(threshold=st.integers(min_value=1, max_value=150_000))
    def test_minimal_hammer_count_brackets_threshold(self, threshold):
        found = minimal_hammer_count(lambda hc: hc >= threshold, hc_max=150_000)
        assert found is not None
        assert found >= threshold
        assert found <= max(threshold + 1, int(threshold * 1.05))


    @settings(max_examples=40, deadline=None)
    @given(
        thresholds=st.lists(
            st.integers(min_value=1, max_value=150_000), min_size=1, max_size=12
        )
    )
    def test_descend_and_search_finds_the_weakest_victim(self, thresholds):
        # Halving keeps every victim that still flips, so the weakest one is
        # always among the candidates that are binary-searched.
        best_hc, best_victim, _ = descend_and_search(
            range(len(thresholds)), lambda victim, hc: hc >= thresholds[victim], 150_000
        )
        weakest = min(thresholds)
        assert weakest <= thresholds[best_victim] <= best_hc
        assert best_hc <= max(weakest + 1, int(weakest * 1.05))


class TestChipProperties:
    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=50),
        fill=st.integers(min_value=0, max_value=255),
        row=st.integers(min_value=0, max_value=31),
    )
    def test_write_read_round_trip_without_hammering(self, seed, fill, row):
        chip = make_chip("DDR4-new", "A", seed=seed, geometry=GEOMETRY)
        chip.write_rows(0, [row], fill)
        assert np.all(chip.read_rows(0, [row]) == fill)

    @settings(max_examples=10, deadline=None)
    @given(
        type_node=st.sampled_from(["DDR4-new", "LPDDR4-1y"]),
        payloads=st.dictionaries(
            st.integers(min_value=0, max_value=31),
            st.binary(min_size=32, max_size=32),
            min_size=1,
            max_size=8,
        ),
    )
    def test_write_rows_read_rows_round_trip(self, type_node, payloads):
        # Bytes pack to bits MSB-first and back, through on-die ECC on LPDDR4.
        chip = make_chip(type_node, "A", seed=1, geometry=GEOMETRY)
        rows = list(payloads)
        chip.write_rows(0, rows, list(payloads.values()))
        assert chip.read_rows(0, rows).tobytes() == b"".join(payloads.values())

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=50))
    def test_hammering_never_flips_aggressor_rows(self, seed):
        chip = make_chip("DDR4-new", "A", seed=seed, geometry=GEOMETRY, hcfirst_target=10_000)
        victim = chip.weakest_cell[1]
        offsets = range(-3, 4)
        chip.write_rows(
            0,
            [victim + offset for offset in offsets],
            [0x00 if offset % 2 == 0 else 0xFF for offset in offsets],
        )
        chip.hammer_pair(0, victim - 1, victim + 1, 150_000)
        assert np.all(chip.read_rows(0, [victim - 1, victim + 1]) == 0xFF)


class TestMitigationProperties:
    @settings(max_examples=20, deadline=None)
    @given(
        hcfirst=st.integers(min_value=2, max_value=1_000),
        activations=st.integers(min_value=0, max_value=3_000),
    )
    def test_ideal_mechanism_never_lets_counter_exceed_hcfirst(self, hcfirst, activations):
        config = MitigationConfig(hcfirst=hcfirst, banks=1, rows_per_bank=64)
        mechanism = IdealRefresh(config)
        refreshes = 0
        for cycle in range(activations):
            victims = mechanism.on_activate(0, 10, cycle)
            refreshes += len(victims)
        # Each victim (rows 9 and 11) must be refreshed exactly
        # floor(activations / (hcfirst - 1)) times -- never fewer (safety)
        # and never more (minimality of the ideal mechanism).
        expected = activations // max(1, hcfirst - 1)
        assert refreshes == 2 * expected
