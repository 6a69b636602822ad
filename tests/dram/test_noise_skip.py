"""The chip skips a row's threshold noise only where no cell of the row can flip.

:class:`~repro.dram.chip.DramChip` draws a (row, epoch) noise stream only
for a written victim row whose exposure reaches its flip floor: the row's
smallest base threshold times ``exp(-NOISE_Z_BOUND * sigma)``.  These
tests pin the three facts that make the skip change no payload:

* ``NOISE_Z_BOUND`` is above every ``|z|`` numpy's ziggurat normal sampler
  can return, with a margin far above float rounding for every profile;
* ``sample_noise_row`` builds the very bytes of the original
  ``exp(normal(0, sigma))`` draw from ``make_rng``; and
* every row the kernel skips in three charz-mix studies has no cell whose
  threshold times its noise, drawn anyway, reaches the row's exposure.

The differential suite checks the payloads themselves against
:class:`~repro.dram.reference.ReferenceDramChip`, which draws every stream.
"""

import dataclasses
import math
import sys

import numpy as np
import pytest

from repro.core.ecc_analysis import EccWordStudyConfig, run_ecc_word_analysis
from repro.core.first_flip import HCFirstStudyConfig, run_hcfirst_search
from repro.core.probability import ProbabilityStudyConfig, run_flip_probability_study
from repro.dram import columnar
from repro.dram.columnar import NOISE_Z_BOUND, BankColumns, CellLaw, sample_noise_row
from repro.dram.geometry import ChipGeometry
from repro.dram.population import make_chip
from repro.dram.vulnerability import PROFILES, profile_for
from repro.utils.rng import make_rng

#: numpy's ziggurat: the tail starts at ``r``, and a tail draw ``r + x``
#: needs ``x * x < 2 * y`` with ``y = -log(1 - U)`` of a 53-bit uniform ``U``,
#: so ``y <= 53 * ln 2``.
ZIGGURAT_R = 3.6541528853610088
ZIGGURAT_MAX = ZIGGURAT_R + math.sqrt(2 * 53 * math.log(2))


def test_the_bound_is_above_every_ziggurat_normal():
    assert ZIGGURAT_MAX == pytest.approx(12.226, abs=1e-3)
    assert NOISE_Z_BOUND >= ZIGGURAT_MAX


def test_every_profile_keeps_a_margin_far_above_float_rounding():
    # The skip compares min(threshold) * exp(-NOISE_Z_BOUND * sigma) with the
    # exposure, while the kernel compares threshold * exp(sigma * z), each
    # rounded a few times: the relative gap must dwarf those roundings.
    sigmas = {profile.threshold_noise_sigma for profile in PROFILES.values()} - {0.0}
    assert sigmas
    for sigma in sigmas:
        assert math.expm1((NOISE_Z_BOUND - ZIGGURAT_MAX) * sigma) > 1e6 * sys.float_info.epsilon


def _law(seed, row_bits, sigma):
    profile = dataclasses.replace(profile_for("DDR4-new", "A"), threshold_noise_sigma=sigma)
    return CellLaw(
        seed=seed,
        row_bits=row_bits,
        threshold_scale=1e-9,
        threshold_floor=1.0,
        planted_cell=(0, 0, 0),
        profile=profile,
    )


@pytest.mark.parametrize("seed", [0, 1, 7, 2**31 + 3, 2**63 - 1, 2**64 + 11, -5, 10**30])
@pytest.mark.parametrize("row_bits,sigma", [(512, 0.02), (128, 0.5), (24, 1e-6)])
def test_noise_rows_are_the_original_draws_bit_for_bit(seed, row_bits, sigma):
    law = _law(seed, row_bits, sigma)
    for bank in (0, 1, 7, np.int64(3), 3):
        for row in (0, 1, 31, 1_000, 65_535):
            for epoch in (0, 1, 2, 123_456):
                expected = np.exp(
                    make_rng(seed, "noise", bank, row, epoch).normal(0.0, sigma, row_bits)
                )
                actual = sample_noise_row(law, bank, row, epoch)
                assert actual.dtype == expected.dtype
                assert actual.tobytes() == expected.tobytes(), (bank, row, epoch)


GEOMETRY = ChipGeometry(banks=1, rows_per_bank=32, row_bytes=64)


@pytest.mark.parametrize(
    "study,config",
    [
        pytest.param(run_hcfirst_search, HCFirstStudyConfig(), id="fig8"),
        pytest.param(run_ecc_word_analysis, EccWordStudyConfig(), id="fig9"),
        pytest.param(
            run_flip_probability_study, ProbabilityStudyConfig(iterations=4), id="table5"
        ),
    ],
)
@pytest.mark.parametrize("type_node,manufacturer", [("DDR4-new", "A"), ("LPDDR4-1x", "A")])
def test_no_skipped_row_has_an_eligible_cell(monkeypatch, type_node, manufacturer, study, config):
    may_flip = BankColumns.may_flip
    rows_seen = {True: 0, False: 0}  # reached, skipped

    def checked(columns, rows_idx, exposure):
        reachable = may_flip(columns, rows_idx, exposure)
        for row, row_exposure, reached in zip(rows_idx, exposure, reachable):
            rows_seen[bool(reached)] += 1
            if not reached:
                epoch = int(columns.epoch[row])
                noise = columnar.sample_noise_row(columns.law, columns.bank, int(row), epoch)
                assert (columns.thresholds[row] * noise > row_exposure).all(), (row, epoch)
        return reachable

    monkeypatch.setattr(BankColumns, "may_flip", checked)
    study(make_chip(type_node, manufacturer, seed=1, geometry=GEOMETRY), config)
    assert rows_seen[True] and rows_seen[False], f"nothing to check: {rows_seen}"
