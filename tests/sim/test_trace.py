"""Unit tests for synthetic trace generation: determinism, address-space
bounds, and the statistical knobs (MPKI, locality, write fraction) that the
workload mixes rely on."""

import pytest

from repro.sim.trace import AggressorTraceGenerator, SyntheticTraceGenerator


def make_generator(**overrides):
    params = dict(
        mpki=30.0,
        row_locality=0.6,
        write_fraction=0.3,
        banks=8,
        rows_per_bank=256,
        columns_per_row=32,
        seed=5,
    )
    params.update(overrides)
    return SyntheticTraceGenerator(**params)


class TestSyntheticTraceGenerator:
    def test_deterministic_for_same_seed(self):
        assert make_generator().generate(500) == make_generator().generate(500)

    def test_different_seeds_differ(self):
        assert make_generator(seed=5).generate(200) != make_generator(seed=6).generate(200)

    def test_prefix_stability(self):
        """A longer run begins with exactly the shorter run's records."""
        assert make_generator().generate(300)[:100] == make_generator().generate(100)

    def test_records_within_address_space(self):
        generator = make_generator()
        for record in generator.generate(1_000):
            assert 0 <= record.bank < generator.banks
            assert 0 <= record.row < generator.rows_per_bank
            assert 0 <= record.column < generator.columns_per_row
            assert record.bubble_instructions >= 0

    def test_mpki_controls_bubble_density(self):
        dense = make_generator(mpki=200.0).generate(2_000)
        sparse = make_generator(mpki=5.0).generate(2_000)
        mean = lambda records: sum(r.bubble_instructions for r in records) / len(records)
        # Geometric bubbles with mean ~1000/mpki: 5 MPKI must sit far above
        # 200 MPKI, and both near their nominal means (loose 2x bounds).
        assert mean(sparse) > 10 * mean(dense)
        assert 2.5 < mean(dense) < 10.0  # nominal 5
        assert 100.0 < mean(sparse) < 400.0  # nominal 200

    def test_write_fraction_controls_write_share(self):
        records = make_generator(write_fraction=0.5).generate(2_000)
        share = sum(r.is_write for r in records) / len(records)
        assert 0.4 < share < 0.6
        assert not any(
            r.is_write for r in make_generator(write_fraction=0.0).generate(500)
        )

    def test_row_locality_repeats_rows_per_bank(self):
        def repeat_rate(records):
            last = {}
            repeats = hits = 0
            for record in records:
                if record.bank in last:
                    hits += 1
                    repeats += last[record.bank] == record.row
                last[record.bank] = record.row
            return repeats / hits

        local = make_generator(row_locality=0.9).generate(2_000)
        scattered = make_generator(row_locality=0.0).generate(2_000)
        assert repeat_rate(local) > 0.8
        assert repeat_rate(scattered) < 0.3

    def test_working_set_confines_rows(self):
        generator = make_generator(working_set_rows=16, row_locality=0.0)
        rows = {record.row for record in generator.generate(2_000)}
        assert len(rows) <= 16
        assert max(rows) - min(rows) < 16

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            make_generator(mpki=0.0)
        with pytest.raises(ValueError):
            make_generator(row_locality=1.5)
        with pytest.raises(ValueError):
            make_generator(write_fraction=-0.1)


class TestAggressorTraceGenerator:
    def make(self, **overrides):
        params = dict(
            target_bank=2,
            victim_row=100,
            banks=8,
            rows_per_bank=256,
            columns_per_row=32,
            seed=9,
        )
        params.update(overrides)
        return AggressorTraceGenerator(**params)

    def test_alternates_the_two_aggressor_rows(self):
        records = self.make().generate(100)
        assert [r.row for r in records[:4]] == [99, 101, 99, 101]
        assert {r.row for r in records} == {99, 101}

    def test_stays_in_target_bank_and_reads_only(self):
        records = self.make().generate(200)
        assert all(r.bank == 2 for r in records)
        assert not any(r.is_write for r in records)

    def test_deterministic(self):
        assert self.make().generate(150) == self.make().generate(150)
