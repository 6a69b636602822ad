"""Differential tests: the columnar chip backend versus the reference oracle.

The columnar :class:`~repro.dram.chip.DramChip` promises *bit identity*
with the retained object-at-a-time
:class:`~repro.dram.reference.ReferenceDramChip`.  This suite checks the
promise two ways:

* hypothesis drives random operation soups -- batch writes (one row, many
  rows, repeated rows), hammers, activates, refreshes and batch reads --
  through both backends in lockstep, comparing every return value and the
  final raw state, stats, and :func:`~repro.dram.chip.state_digest`;
* batches that raise must change nothing on either backend; and
* deterministic *flip-inducing* sequences (worst-case stripe fill plus
  double-sided hammers up to far above a low planted ``HC_first``) confirm
  the equivalence holds where it matters most: on chips that actually flip
  bits, in every Table 1 configuration (ECC/remapper/coupling variants);
  on the on-die-ECC chips they also hammer until an ECC word miscorrects,
  the case the columnar chip's per-chip fill cache and its decode of
  flipped rows only must get exactly right.

Random soups alone rarely accumulate enough exposure to flip anything, so
the hypothesis strategy biases hammer counts high and refreshes low, and
the deterministic cases guarantee non-zero flip coverage.
"""

import dataclasses

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
    rows = list(range(GEOMETRY.rows_per_bank))
    for bank in range(GEOMETRY.banks):
        assert np.array_equal(columnar.read_rows_raw(bank, rows), reference.read_rows_raw(bank, rows))
        assert np.array_equal(columnar.read_rows(bank, rows), reference.read_rows(bank, rows))
    assert state_digest(columnar) == state_digest(reference)
    for field in ("activations", "refreshes", "row_writes", "bit_flips_induced"):
        assert getattr(columnar.stats, field) == getattr(reference.stats, field), field


# ----------------------------------------------------------------------
# Operation-soup strategy
# ----------------------------------------------------------------------
ROWS = st.integers(min_value=0, max_value=GEOMETRY.rows_per_bank - 1)
FILLS = st.integers(min_value=0, max_value=255)
BUFFERS = st.binary(min_size=GEOMETRY.row_bytes, max_size=GEOMETRY.row_bytes)


def _row_payloads(values):
    """(rows, per-row payloads) of a batch write, which may repeat a row."""
    return st.lists(st.tuples(ROWS, values), min_size=1, max_size=6).map(
        lambda items: ([row for row, _ in items], [value for _, value in items])
    )


OPS = st.one_of(
    st.tuples(st.just("write_rows"), ROWS.map(lambda row: [row]), FILLS),
    st.tuples(st.just("write_rows"), st.lists(ROWS, min_size=1, max_size=6), FILLS),
    st.tuples(st.just("write_rows_per_row"), _row_payloads(FILLS)),
    st.tuples(
        st.just("write_rows_per_row"),
        _row_payloads(st.one_of(FILLS, BUFFERS)).filter(
            lambda batch: any(isinstance(value, bytes) for value in batch[1])
        ),
    ),
    st.tuples(st.just("activate"), ROWS, st.integers(min_value=1, max_value=30_000)),
    st.tuples(st.just("hammer_pair"), ROWS, ROWS, st.integers(min_value=1, max_value=40_000)),
    # Refreshes are rare (weight via one_of order is uniform; keep counts
    # low through the op-list size instead) so exposure can accumulate.
    st.tuples(st.just("refresh_row"), ROWS),
    st.tuples(st.just("refresh_all")),
    st.tuples(st.just("read_rows"), ROWS.map(lambda row: [row])),
    st.tuples(st.just("read_rows"), st.lists(ROWS, min_size=1, max_size=8)),
)


def apply_op(chip, op):
    """Apply one soup op; returns a comparable outcome value."""
    kind = op[0]
    if kind == "write_rows":
        chip.write_rows(0, op[1], op[2])
        return None
    if kind == "write_rows_per_row":
        chip.write_rows(0, *op[1])
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
    assert kind == "read_rows"
    return chip.read_rows(0, op[1]).tobytes()


SEEDS = st.integers(min_value=0, max_value=2**16)
SOUPS = st.lists(OPS, min_size=1, max_size=30)


def check_soup(type_node, manufacturer, seed, ops):
    """Run one soup through both backends in lockstep."""
    columnar, reference = build_pair(type_node, manufacturer, seed)
    for op in ops:
        assert apply_op(columnar, op) == apply_op(reference, op), op
    assert_same_state(columnar, reference)
    assert columnar.is_pristine == reference.is_pristine


class TestOperationSoups:
    @pytest.mark.parametrize("type_node,manufacturer", CONFIG_CASES)
    @settings(max_examples=20, deadline=None)
    @given(seed=SEEDS, ops=SOUPS)
    def test_soup_is_bit_identical(self, type_node, manufacturer, seed, ops):
        check_soup(type_node, manufacturer, seed, ops)

    @pytest.mark.slow
    @pytest.mark.parametrize("type_node,manufacturer", CONFIG_CASES)
    @settings(max_examples=200, deadline=None)
    @given(seed=SEEDS, ops=SOUPS)
    def test_long_soup_is_bit_identical(self, type_node, manufacturer, seed, ops):
        """Ten times the tier-1 soup's examples, for the slow suite."""
        check_soup(type_node, manufacturer, seed, ops)

    @pytest.mark.parametrize("type_node,manufacturer", CONFIG_CASES)
    @settings(max_examples=10, deadline=None)
    @given(seed=SEEDS, ops=st.lists(OPS, min_size=0, max_size=10))
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
# On-die ECC: miscorrections, rewrites and the fill cache
# ----------------------------------------------------------------------
ECC_CONFIGS = [
    pytest.param(tn, mfr, id=f"{tn.value}-{mfr}")
    for tn, mfr in _ALL_CONFIGS
    if profile_for(tn, mfr).on_die_ecc
]


@pytest.mark.parametrize("type_node,manufacturer", ECC_CONFIGS)
def test_ecc_reads_are_exact_through_a_miscorrection(type_node, manufacturer):
    """Hammer until an ECC word holding two or more raw flips decodes to
    something other than its raw bits (the miscorrection Table 5 depends
    on); reads still equal the oracle's, and rewrites read back clean."""
    columnar, reference = build_pair(type_node, manufacturer, seed=0)
    rows = list(range(GEOMETRY.rows_per_bank))
    for chip in (columnar, reference):
        bank, _victim, aggressors, _fill = _prepare_worst_case(chip)
    fills = np.packbits(columnar.read_rows_raw(bank, rows), axis=1)[:, 0]
    written = np.unpackbits(np.repeat(fills[:, None], GEOMETRY.row_bytes, axis=1), axis=1)
    word_bits = 128
    for count in (1_000, 2_000, 4_000, 8_000, 16_000, 32_000):
        for chip in (columnar, reference):
            chip.hammer_pair(bank, aggressors[0], aggressors[-1], count)
        raw = columnar.read_rows_raw(bank, rows)
        decoded = columnar.read_rows(bank, rows)
        word_flips = (raw ^ written).reshape(len(rows), -1, word_bits).sum(axis=2)
        miscorrected = [
            row
            for row in np.nonzero(word_flips.max(axis=1) >= 2)[0].tolist()
            if not np.array_equal(np.unpackbits(decoded[row]), raw[row])
        ]
        if miscorrected:
            break
    else:
        pytest.fail("no ECC word miscorrected")
    assert np.array_equal(decoded, reference.read_rows(bank, rows))
    row = miscorrected[0]
    fill = int(fills[row])
    assert columnar.read_rows(bank, [row]).tobytes() == reference.read_rows(bank, [row]).tobytes()

    # Rewriting the row restores it, and its reads come back clean.
    for chip in (columnar, reference):
        chip.write_rows(bank, [row], [fill])
    assert np.array_equal(columnar.read_rows_raw(bank, [row])[0], written[row])
    assert np.all(columnar.read_rows(bank, [row]) == fill)

    # Flip the rewritten row again: a later write of its byte to another
    # row still stores the written pattern (no cached fill row aliases
    # bank storage).
    for chip in (columnar, reference):
        chip.hammer_pair(bank, aggressors[0], aggressors[-1], 32_000)
    assert not np.array_equal(columnar.read_rows_raw(bank, [row])[0], written[row])
    other = next(r for r in rows if r != row and fills[r] == fill)
    for chip in (columnar, reference):
        chip.write_rows(bank, [other], fill)
    assert np.array_equal(columnar.read_rows_raw(bank, [other])[0], written[other])

    # A batch rewrite with numpy bytes (which share the int bytes' cache
    # entries) restores every row.
    for chip in (columnar, reference):
        chip.write_rows(bank, rows, list(fills))
    assert np.array_equal(columnar.read_rows_raw(bank, rows), written)
    assert np.array_equal(columnar.read_rows(bank, rows), np.packbits(written, axis=1))
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
        ("write_rows", ([0], 0)),
    ],
    ids=["write_rows", "write_rows-fill", "read_rows", "read_rows_raw", "write_rows-one-row"],
)
def test_out_of_range_bank_is_rejected_even_for_zero_rows(backend, method, args):
    """A zero-row batch validates its bank exactly like a one-row batch."""
    chip = build_pair(*_ALL_CONFIGS[0], seed=0)[backend]
    with pytest.raises(IndexError, match=r"bank 5 out of range \[0, 1\)"):
        getattr(chip, method)(GEOMETRY.banks + 4, *args)


# ----------------------------------------------------------------------
# A batch that raises changes nothing
# ----------------------------------------------------------------------
_ROWS = GEOMETRY.rows_per_bank

#: Calls both backends must reject whole: (method, args, error).
RAISING_BATCHES = [
    pytest.param("write_rows", (0, [1, 2], [0x11, 300]), ValueError, id="fill-out-of-range"),
    pytest.param(
        "write_rows", (0, [1, 1, 2], [0x11, 0x22, 300]), ValueError,
        id="repeated-row-fill-out-of-range",
    ),
    pytest.param(
        "write_rows", (0, [1, 2], [0x11, np.zeros(3, dtype=np.uint8)]), ValueError,
        id="short-buffer",
    ),
    pytest.param("write_rows", (0, [1, 2, 3], [0x11, 0x22]), ValueError, id="payload-count"),
    pytest.param("write_rows", (0, [1, 2, _ROWS], 0x11), IndexError, id="row-out-of-range"),
    pytest.param(
        "write_rows", (0, [1, 1, -1], [0x11, 0x22, 0x33]), IndexError, id="repeated-row-negative"
    ),
    pytest.param("read_rows", (0, [1, 2, _ROWS]), IndexError, id="read-out-of-range"),
    pytest.param("read_rows_raw", (0, [1, -1]), IndexError, id="raw-read-negative"),
    # Banks, rows and hammer counts must be integers; a float that int()
    # would truncate or accept is refused before anything is counted.
    pytest.param("write_rows", (0, [2, 1.7], 0x11), TypeError, id="float-row"),
    pytest.param("write_rows", (0.5, [1], 0x11), TypeError, id="float-bank"),
    pytest.param("read_rows", (0, [1, np.float64(2.0)]), TypeError, id="read-float-row"),
    pytest.param("read_rows_raw", (0.0, [1]), TypeError, id="raw-read-float-bank"),
    pytest.param("activate", (0, 1.7, 10), TypeError, id="activate-float-row"),
    pytest.param("activate", (0, 3, 2.5), TypeError, id="activate-float-count"),
    pytest.param("hammer_pair", (0, 1, 3.0, 40_000), TypeError, id="hammer-pair-float-row"),
    pytest.param("hammer_pair", (0.0, 1, 3, 40_000), TypeError, id="hammer-pair-float-bank"),
    pytest.param("hammer_pair", (0, 1, 3, 2.5), TypeError, id="hammer-pair-float-count"),
]


def _observable(chip):
    """What a raising batch must leave as it was."""
    return state_digest(chip), chip.is_pristine, dataclasses.astuple(chip.stats)


@pytest.mark.parametrize("chip_class", [DramChip, ReferenceDramChip], ids=["columnar", "reference"])
@pytest.mark.parametrize("written", [False, True], ids=["pristine", "written"])
@pytest.mark.parametrize("method,args,error", RAISING_BATCHES)
def test_a_batch_that_raises_changes_nothing(chip_class, written, method, args, error):
    """Every bank, row and hammer count is checked and every payload
    coerced before any state changes, so a rejected call leaves raw state,
    pristineness and every counter as they were; a twin chip that never
    saw the call then hammers to the same flips (no wordline's exposure or
    refresh epoch moved)."""
    profile = profile_for(*_ALL_CONFIGS[-1])
    chip, twin = (
        chip_class(profile, geometry=GEOMETRY, seed=3, hcfirst_target=HCFIRST_TARGET)
        for _ in range(2)
    )
    for each in (chip, twin):
        if written:
            bank, _victim, aggressors, _fill = _prepare_worst_case(each)
            each.hammer_pair(bank, aggressors[0], aggressors[-1], 1_000)
    before = _observable(chip)
    with pytest.raises(error):
        getattr(chip, method)(*args)
    assert _observable(chip) == before
    for each in (chip, twin):
        each.hammer_pair(0, 1, 3, 40_000)
    assert _observable(chip) == _observable(twin)


# ----------------------------------------------------------------------
# Pristineness is one flag
# ----------------------------------------------------------------------
@pytest.mark.parametrize("chip_class", [DramChip, ReferenceDramChip], ids=["columnar", "reference"])
@pytest.mark.parametrize(
    "touch",
    [
        lambda chip: chip.activate(0, 3, 100),
        lambda chip: chip.hammer_pair(0, 2, 4, 1),
        lambda chip: chip.write_rows(0, [5], 0x00),
    ],
    ids=["activate", "hammer_pair", "write_rows"],
)
def test_pristine_until_the_first_write_or_activation(chip_class, touch):
    """Calls that change nothing keep a chip pristine; its first row write
    or activation clears the flag, and no refresh sets it again (an
    activated chip's counters and refresh epochs are not a fresh chip's)."""
    chip = chip_class(
        profile_for("DDR4-new", "A"), geometry=GEOMETRY, seed=1, hcfirst_target=HCFIRST_TARGET
    )
    chip.write_rows(0, [], [])
    chip.write_rows(0, [], 0x11)
    with pytest.raises(ValueError):
        chip.write_rows(0, [1, 2], [0x11, 300])
    with pytest.raises(IndexError):
        chip.write_rows(0, [1, _ROWS], 0x11)
    with pytest.raises(IndexError):
        chip.hammer_pair(0, 1, _ROWS, 40_000)
    chip.activate(0, 3, 0)
    chip.activate(0, 3, -5)
    chip.hammer_pair(0, 2, 4, 0)
    chip.refresh_row(0, 3)
    chip.refresh_all()
    chip.read_rows(0, [1, 2])
    chip.read_rows_raw(0, [1, 2])
    assert chip.is_pristine
    touch(chip)
    assert not chip.is_pristine
    chip.refresh_row(0, 3)
    chip.refresh_all()
    assert not chip.is_pristine
