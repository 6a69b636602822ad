"""Differential tests: the columnar chip backend versus the reference oracle.

The columnar :class:`~repro.dram.chip.DramChip` promises *bit identity*
with the retained object-at-a-time
:class:`~repro.dram.reference.ReferenceDramChip`.  This suite checks the
promise two ways:

* hypothesis drives random operation soups -- interleaved writes, batch
  writes, hammers, activates, refreshes and reads -- through both backends
  in lockstep, comparing every return value and the final raw state,
  stats, and :func:`~repro.dram.chip.state_digest`; and
* deterministic *flip-inducing* sequences (worst-case stripe fill plus
  double-sided hammers up to far above a low planted ``HC_first``) confirm
  the equivalence holds where it matters most: on chips that actually flip
  bits, in every Table 1 configuration (ECC/remapper/coupling variants).

Random soups alone rarely accumulate enough exposure to flip anything, so
the hypothesis strategy biases hammer counts high and refreshes low, and
the deterministic cases guarantee non-zero flip coverage.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dram.chip import DramChip, state_digest
from repro.dram.geometry import ChipGeometry
from repro.dram.reference import ReferenceDramChip
from repro.dram.vulnerability import available_configurations, profile_for

#: Tiny geometry keeps each example cheap; 24 rows still leaves room for
#: double-sided neighbourhoods under every remapper.
GEOMETRY = ChipGeometry(banks=1, rows_per_bank=24, row_bytes=16)

#: Low planted threshold so generated hammer counts can induce flips.
HCFIRST_TARGET = 1_500

#: A spread of Table 1 configurations covering ECC on/off and remappers.
_ALL_CONFIGS = list(available_configurations())
CONFIG_CASES = [
    pytest.param(tn, mfr, id=f"{tn.value}-{mfr}")
    for tn, mfr in (
        _ALL_CONFIGS[0],
        _ALL_CONFIGS[len(_ALL_CONFIGS) // 3],
        _ALL_CONFIGS[(2 * len(_ALL_CONFIGS)) // 3],
        _ALL_CONFIGS[-1],
    )
]


def build_pair(type_node, manufacturer, seed):
    """One columnar chip and one reference chip with identical calibration."""
    kwargs = dict(geometry=GEOMETRY, seed=seed, hcfirst_target=HCFIRST_TARGET)
    profile = profile_for(type_node, manufacturer)
    return DramChip(profile, **kwargs), ReferenceDramChip(profile, **kwargs)


def assert_same_state(columnar, reference):
    """Raw bits, decoded reads, stats and digests all agree."""
    for bank in range(GEOMETRY.banks):
        raw_c = columnar.read_rows_raw(bank, list(range(GEOMETRY.rows_per_bank)))
        raw_r = reference.read_rows_raw(bank, list(range(GEOMETRY.rows_per_bank)))
        assert np.array_equal(raw_c, raw_r)
    assert state_digest(columnar) == state_digest(reference)
    for field in ("activations", "refreshes", "row_writes", "bit_flips_induced"):
        assert getattr(columnar.stats, field) == getattr(reference.stats, field), field


# ----------------------------------------------------------------------
# Operation-soup strategy
# ----------------------------------------------------------------------
ROWS = st.integers(min_value=0, max_value=GEOMETRY.rows_per_bank - 1)
FILLS = st.integers(min_value=0, max_value=255)

OPS = st.one_of(
    st.tuples(st.just("write_row"), ROWS, FILLS),
    st.tuples(
        st.just("write_rows"),
        st.lists(ROWS, min_size=1, max_size=6, unique=True),
        FILLS,
    ),
    st.tuples(st.just("activate"), ROWS, st.integers(min_value=1, max_value=30_000)),
    st.tuples(st.just("hammer_pair"), ROWS, ROWS, st.integers(min_value=1, max_value=40_000)),
    # Refreshes are rare (weight via one_of order is uniform; keep counts
    # low through the op-list size instead) so exposure can accumulate.
    st.tuples(st.just("refresh_row"), ROWS),
    st.tuples(st.just("refresh_all")),
    st.tuples(st.just("read_row"), ROWS),
)


def apply_op(chip, op):
    """Apply one soup op; returns a comparable outcome value."""
    kind = op[0]
    if kind == "write_row":
        chip.write_row(0, op[1], op[2])
        return None
    if kind == "write_rows":
        chip.write_rows(0, op[1], op[2])
        return None
    if kind == "activate":
        return chip.activate(0, op[1], op[2])
    if kind == "hammer_pair":
        return chip.hammer_pair(0, op[1], op[2], op[3])
    if kind == "refresh_row":
        chip.refresh_row(0, op[1])
        return None
    if kind == "refresh_all":
        chip.refresh_all()
        return None
    assert kind == "read_row"
    return chip.read_row(0, op[1]).tobytes()


class TestOperationSoups:
    @pytest.mark.parametrize("type_node,manufacturer", CONFIG_CASES)
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**16), ops=st.lists(OPS, min_size=1, max_size=30))
    def test_soup_is_bit_identical(self, type_node, manufacturer, seed, ops):
        columnar, reference = build_pair(type_node, manufacturer, seed)
        for op in ops:
            assert apply_op(columnar, op) == apply_op(reference, op), op
        assert_same_state(columnar, reference)
        assert columnar.is_pristine == reference.is_pristine

    @pytest.mark.parametrize("type_node,manufacturer", CONFIG_CASES)
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**16), ops=st.lists(OPS, min_size=0, max_size=10))
    def test_soup_after_worst_case_hammer(self, type_node, manufacturer, seed, ops):
        """Soups layered over a guaranteed-flip prefix stay identical."""
        columnar, reference = build_pair(type_node, manufacturer, seed)
        flips = []
        for chip in (columnar, reference):
            bank, victim, aggressors, _fill = _prepare_worst_case(chip)
            chip.refresh_row(bank, victim)
            flips.append(chip.hammer_pair(bank, aggressors[0], aggressors[-1], 40_000))
        assert flips[0] == flips[1]
        assert flips[0] > 0, "prefix must induce flips for the test to bite"
        for op in ops:
            assert apply_op(columnar, op) == apply_op(reference, op), op
        assert_same_state(columnar, reference)


def _prepare_worst_case(chip):
    """Worst-case stripe fill around the planted weakest cell."""
    bank, victim, _column = chip.weakest_cell
    dominant = chip.profile.coupling_classes[0]
    victim_fill = 0x00 if dominant.victim_bit == 0 else 0xFF
    aggressor_fill = 0x00 if dominant.aggressor_bit == 0 else 0xFF
    victim_wordline = chip.remapper.logical_to_physical(victim)
    rows, data = [], []
    for row in range(chip.geometry.rows_per_bank):
        wordline = chip.remapper.logical_to_physical(row)
        rows.append(row)
        data.append(victim_fill if (wordline - victim_wordline) % 2 == 0 else aggressor_fill)
    chip.write_rows(bank, rows, data)
    aggressors = []
    for neighbour in (victim_wordline - 1, victim_wordline + 1):
        for logical in chip.remapper.physical_to_logical(neighbour):
            if 0 <= logical < chip.geometry.rows_per_bank:
                aggressors.append(logical)
                break
    assert len(aggressors) == 2
    return bank, victim, aggressors, victim_fill


# ----------------------------------------------------------------------
# Every configuration through a flip-inducing hammer sweep
# ----------------------------------------------------------------------
#: Accumulating hammer counts (no refresh in between), from below the
#: planted ``HCFIRST_TARGET`` to far above it.
SWEEP_HAMMER_COUNTS = (500, 1_000, 2_000, 40_000)


@pytest.mark.parametrize(
    "type_node,manufacturer",
    [pytest.param(tn, mfr, id=f"{tn.value}-{mfr}") for tn, mfr in _ALL_CONFIGS],
)
def test_hammer_sweep_is_bit_identical(type_node, manufacturer):
    """Double-sided hammer every interior victim; both backends flip alike."""
    columnar, reference = build_pair(type_node, manufacturer, seed=2020)
    flips = []
    for chip in (columnar, reference):
        bank, _victim, _aggressors, _fill = _prepare_worst_case(chip)
        flips.append(
            [
                chip.hammer_pair(bank, victim - 1, victim + 1, count)
                for count in SWEEP_HAMMER_COUNTS
                for victim in range(2, GEOMETRY.rows_per_bank - 2)
            ]
        )
    assert flips[0] == flips[1]
    assert sum(flips[0]) > 0, "the sweep must induce flips for the test to bite"
    assert_same_state(columnar, reference)


# ----------------------------------------------------------------------
# Address validation of empty batches
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", [0, 1], ids=["columnar", "reference"])
@pytest.mark.parametrize(
    "method,args",
    [
        ("write_rows", ([], [])),
        ("write_rows", ([], 0)),
        ("read_rows", ([],)),
        ("read_rows_raw", ([],)),
        ("write_row", (0, 0)),
    ],
    ids=["write_rows", "write_rows-fill", "read_rows", "read_rows_raw", "write_row"],
)
def test_out_of_range_bank_is_rejected_even_for_zero_rows(backend, method, args):
    """A zero-row batch validates its bank exactly like a single-row call."""
    chip = build_pair(*_ALL_CONFIGS[0], seed=0)[backend]
    with pytest.raises(IndexError, match=r"bank 5 out of range \[0, 1\)"):
        getattr(chip, method)(GEOMETRY.banks + 4, *args)
