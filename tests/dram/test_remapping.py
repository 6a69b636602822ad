"""Tests for logical-to-physical row remapping schemes."""

import pytest

from repro.dram.remapping import (
    IdentityRemapper,
    PairedWordlineRemapper,
    remapper_for,
)


class TestIdentityRemapper:
    def test_maps_to_itself(self):
        remapper = IdentityRemapper()
        assert remapper.logical_to_physical(42) == 42
        assert remapper.physical_to_logical(42) == [42]

    def test_aggressors_are_adjacent_rows(self):
        remapper = IdentityRemapper()
        assert sorted(remapper.aggressors_for(10)) == [9, 11]

    def test_num_wordlines(self):
        assert IdentityRemapper().num_wordlines(64) == 64


class TestPairedWordlineRemapper:
    def test_pairs_share_wordline(self):
        remapper = PairedWordlineRemapper()
        assert remapper.logical_to_physical(6) == remapper.logical_to_physical(7) == 3

    def test_physical_to_logical(self):
        remapper = PairedWordlineRemapper()
        assert remapper.physical_to_logical(3) == [6, 7]

    def test_aggressors_skip_shared_wordline(self):
        # The paper hammers rows N-2 and N+2 for a victim N in manufacturer
        # B's LPDDR4-1x chips; the paired remapper must produce aggressors
        # from the adjacent wordlines, not the victim's own wordline.
        remapper = PairedWordlineRemapper()
        aggressors = remapper.aggressors_for(6)
        assert 6 not in aggressors and 7 not in aggressors
        assert set(aggressors) == {4, 5, 8, 9}

    def test_num_wordlines_halved(self):
        assert PairedWordlineRemapper().num_wordlines(64) == 32
        assert PairedWordlineRemapper().num_wordlines(65) == 33


class TestRegistry:
    def test_lookup_by_name(self):
        assert isinstance(remapper_for("identity"), IdentityRemapper)
        assert isinstance(remapper_for("paired"), PairedWordlineRemapper)

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError):
            remapper_for("nonsense")
