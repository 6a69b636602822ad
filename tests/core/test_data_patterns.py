"""Tests for the standard data patterns."""

import pytest

from repro.core.data_patterns import (
    CHECKERED0,
    CHECKERED1,
    COLSTRIPE0,
    COLSTRIPE1,
    ROWSTRIPE0,
    ROWSTRIPE1,
    SOLID0,
    SOLID1,
    STANDARD_PATTERNS,
    DataPattern,
    pattern_by_name,
    worst_case_pattern,
)
from repro.dram.vulnerability import profile_for


class TestPatternDefinitions:
    def test_eight_standard_patterns(self):
        assert len(STANDARD_PATTERNS) == 8
        assert len({p.name for p in STANDARD_PATTERNS}) == 8

    def test_rowstripe_bytes(self):
        assert (ROWSTRIPE0.victim_byte, ROWSTRIPE0.aggressor_byte) == (0x00, 0xFF)
        assert (ROWSTRIPE1.victim_byte, ROWSTRIPE1.aggressor_byte) == (0xFF, 0x00)

    def test_checkered_bytes(self):
        assert (CHECKERED0.victim_byte, CHECKERED0.aggressor_byte) == (0x55, 0xAA)

    def test_uniform_patterns(self):
        # Solid and ColStripe write one byte to every row of the
        # neighbourhood; RowStripe and Checkered alternate by row parity.
        for pattern in (SOLID0, SOLID1, COLSTRIPE0, COLSTRIPE1):
            assert pattern.victim_byte == pattern.aggressor_byte, pattern.name
        for pattern in (ROWSTRIPE0, ROWSTRIPE1, CHECKERED0, CHECKERED1):
            assert pattern.victim_byte != pattern.aggressor_byte, pattern.name

    def test_inverse(self):
        # Each *1 pattern writes the bitwise complement of its *0 pattern.
        pairs = [
            (SOLID0, SOLID1),
            (COLSTRIPE0, COLSTRIPE1),
            (CHECKERED0, CHECKERED1),
            (ROWSTRIPE0, ROWSTRIPE1),
        ]
        for zero, one in pairs:
            assert one.victim_byte == zero.victim_byte ^ 0xFF, one.name
            assert one.aggressor_byte == zero.aggressor_byte ^ 0xFF, one.name

    def test_invalid_byte_rejected(self):
        with pytest.raises(ValueError):
            DataPattern("bad", "B", 0x100, 0x00)


class TestLookup:
    def test_by_full_name_and_abbreviation(self):
        assert pattern_by_name("RowStripe1") is ROWSTRIPE1
        assert pattern_by_name("RS1") is ROWSTRIPE1
        assert pattern_by_name("CH0") is CHECKERED0

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError):
            pattern_by_name("ZigZag7")


class TestWorstCasePattern:
    @pytest.mark.parametrize(
        "type_node, manufacturer, expected",
        [
            ("DDR4-old", "A", "RowStripe1"),
            ("DDR4-old", "C", "RowStripe0"),
            ("DDR4-new", "C", "Checkered1"),
            ("DDR3-new", "C", "Checkered0"),
            ("LPDDR4-1y", "A", "RowStripe1"),
            ("LPDDR4-1x", "A", "Checkered1"),
        ],
    )
    def test_matches_table3(self, type_node, manufacturer, expected):
        profile = profile_for(type_node, manufacturer)
        assert worst_case_pattern(profile).name == expected
