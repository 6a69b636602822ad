"""Tests for chip geometry and addressing."""

import pytest

from repro.dram.geometry import ChipGeometry


class TestChipGeometry:
    def test_derived_quantities(self):
        geometry = ChipGeometry(banks=2, rows_per_bank=128, row_bytes=64)
        assert geometry.row_bits == 512
        assert geometry.total_rows == 256
        assert geometry.total_cells == 256 * 512

    def test_rejects_invalid_dimensions(self):
        with pytest.raises(ValueError):
            ChipGeometry(banks=0, rows_per_bank=1, row_bytes=8)
        with pytest.raises(ValueError):
            ChipGeometry(banks=1, rows_per_bank=0, row_bytes=8)
        with pytest.raises(ValueError):
            ChipGeometry(banks=1, rows_per_bank=1, row_bytes=12)

    def test_validate_address(self):
        geometry = ChipGeometry(banks=2, rows_per_bank=16, row_bytes=8)
        geometry.validate_address(1, 15)
        with pytest.raises(IndexError):
            geometry.validate_address(2, 0)
        with pytest.raises(IndexError):
            geometry.validate_address(0, 16)
        with pytest.raises(IndexError):
            geometry.validate_address(-1, 0)
