"""Tests for DRAM type specifications."""

import pytest

from repro.dram.spec import SPECS, DramType, spec_for


class TestSpecs:
    def test_all_three_types_present(self):
        assert set(SPECS) == {DramType.DDR3, DramType.DDR4, DramType.LPDDR4}

    def test_trc_matches_paper(self):
        # Section 4.3 quotes DDR3 52.5 ns, DDR4 50 ns, LPDDR4 60 ns.
        assert spec_for(DramType.DDR3).trc_ns == pytest.approx(52.5)
        assert spec_for(DramType.DDR4).trc_ns == pytest.approx(50.0)
        assert spec_for(DramType.LPDDR4).trc_ns == pytest.approx(60.0)

    def test_only_lpddr4_has_on_die_ecc(self):
        assert spec_for(DramType.LPDDR4).on_die_ecc
        assert not spec_for(DramType.DDR3).on_die_ecc
        assert not spec_for(DramType.DDR4).on_die_ecc

    def test_row_bits(self):
        spec = spec_for(DramType.DDR4)
        assert spec.row_bits == spec.row_bytes * 8


class TestRefreshWindowBudget:
    def test_150k_hammers_fit_in_32ms_window(self):
        # The paper's 150k-hammer test ceiling is chosen so the core loop
        # stays under the 32 ms minimum refresh window for every DRAM type,
        # while a 500k-hammer loop would not fit.
        for spec in SPECS.values():
            assert 150_000 <= spec.max_hammers_in_refresh_window(32.0) < 500_000

    def test_max_hammers_scales_with_window(self):
        spec = spec_for(DramType.DDR4)
        assert spec.max_hammers_in_refresh_window(64.0) == 2 * spec.max_hammers_in_refresh_window(32.0)

    def test_rows_per_refresh_window(self):
        spec = spec_for(DramType.DDR4)
        assert spec.rows_per_refresh_window == pytest.approx(8205, abs=10)
