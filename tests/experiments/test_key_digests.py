"""Pins of every cache key the registered studies produce.

A store entry is found by its :class:`~repro.experiments.store.CacheKey`
and the filename derived from it, so a change to how units, config digests
or chip digests are computed silently orphans every existing store.
:data:`STORE_KEY_DIGESTS` holds one digest per built-in study, over the keys
and filenames of every unit of the decomposed studies on small configs, the
key of each undecomposed chip study's implicit unit at its default config,
and the config digest of the study's default config; so a moved pin names
the studies whose stores stop replaying.  The property tests check the
canonical text behind unit and config digests against a verbatim copy of
the reference ``_canonical`` below, over scalar, nested and dataclass
values.

Never re-record these pins to make a change pass: a moved digest means
existing stores no longer replay.
"""

from __future__ import annotations

import collections
import dataclasses
import enum
import hashlib
from typing import Any

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.analysis.mitigation_study import FullMitigationStudyConfig, MitigationStudyConfig
from repro.dram.geometry import ChipGeometry
from repro.experiments import ExperimentSession, WorkUnit, get_study, list_studies
from repro.experiments.store import cache_key
from repro.experiments.study import config_digest

#: Study -> first 16 hex digits of a sha256 over its lines of :func:`key_lines`.
STORE_KEY_DIGESTS = {
    "fig10-mitigations": "ce9c897530e40b27",
    "fig10-mitigations-full": "5af4ecb6ac588898",
    "alg1-characterization": "4b76d247f7e62acb",
    "fig4-coverage": "6863b16bae7b250e",
    "fig5-hc-sweep": "08bba43c0f2d4c57",
    "fig6-spatial": "7f08f6c20bb57f94",
    "fig7-word-density": "ea946514ec3c49ad",
    "fig8-hcfirst": "850b4317f7f608a8",
    "fig9-ecc-words": "58e747805e73d51a",
    "table5-flip-probability": "767f5d5b07ede518",
    "service-selftest": "bc9c84903cc88aaf",
}

GEOMETRY = ChipGeometry(banks=1, rows_per_bank=32, row_bytes=16)
CONFIGURATIONS = (("DDR4-new", "A"), ("LPDDR4-1y", "A"))
FIG10_SMALL = {"num_mixes": 2, "hcfirst_values": (2_000, 64)}
UNDECOMPOSED_CHIP_STUDIES = (
    "fig5-hc-sweep",
    "fig6-spatial",
    "fig7-word-density",
    "fig8-hcfirst",
    "fig9-ecc-words",
    "table5-flip-probability",
)
#: Every study the library registers, whose default config digests are pinned.
BUILTIN_STUDIES = (
    "alg1-characterization",
    "fig10-mitigations",
    "fig10-mitigations-full",
    "fig4-coverage",
    "fig5-hc-sweep",
    "fig6-spatial",
    "fig7-word-density",
    "fig8-hcfirst",
    "fig9-ecc-words",
    "service-selftest",
    "table5-flip-probability",
)


def _reference_canonical(value: Any) -> str:
    """The canonical text every unit and config digest is computed over."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = {f.name: getattr(value, f.name) for f in dataclasses.fields(value)}
        inner = ",".join(
            f"{key}={_reference_canonical(fields[key])}" for key in sorted(fields)
        )
        return f"{type(value).__name__}({inner})"
    if isinstance(value, dict):
        inner = ",".join(
            f"{_reference_canonical(key)}:{_reference_canonical(value[key])}"
            for key in sorted(value, key=repr)
        )
        return "{" + inner + "}"
    if isinstance(value, (list, tuple)):
        return "(" + ",".join(_reference_canonical(item) for item in value) + ")"
    return repr(value)


def _sha16(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _key_line(key) -> str:
    # The second column held a whole-study key's config digest, which no key
    # has any more; it stays empty so unit keys' lines keep their text.
    return "\x1f".join((key.study, "", key.chip_digest, key.unit_digest, key.filename))


def key_lines():
    """Study -> one line per pinned key or config digest, in a fixed order."""
    chips = ExperimentSession.from_table1(
        chips_per_config=1, seed=7, geometry=GEOMETRY, configurations=CONFIGURATIONS
    ).chips
    assert len(chips) == 2
    lines = collections.defaultdict(list)
    for name, config in (
        ("fig10-mitigations", MitigationStudyConfig(**FIG10_SMALL)),
        ("fig10-mitigations-full", FullMitigationStudyConfig(**FIG10_SMALL)),
    ):
        for unit in get_study(name).units_for(config):
            lines[name].append(_key_line(cache_key(name, None, unit)))
    for name in ("alg1-characterization", "fig4-coverage"):
        spec = get_study(name)
        config = spec.default_config()
        for chip in chips:
            for unit in spec.units_for(config):
                lines[name].append(_key_line(cache_key(name, chip, unit)))
    for name in UNDECOMPOSED_CHIP_STUDIES:
        (unit,) = get_study(name).units_for()
        for chip in chips:
            lines[name].append(_key_line(cache_key(name, chip, unit)))
    for name in BUILTIN_STUDIES:
        lines[name].append(f"{name}\x1f{config_digest(get_study(name).default_config())}")
    return lines


def test_store_keys_and_config_digests_are_pinned():
    assert set(BUILTIN_STUDIES) <= set(list_studies())
    lines = key_lines()
    assert sum(map(len, lines.values())) == 85
    digests = {name: _sha16("\n".join(study_lines)) for name, study_lines in lines.items()}
    assert digests == STORE_KEY_DIGESTS


# ----------------------------------------------------------------------
# Canonical text: the library against the reference copy
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class Probe:
    left: Any
    right: Any = None


class Colour(enum.IntEnum):
    RED = 1
    BLUE = 2


Pair = collections.namedtuple("Pair", "first second")

keys = st.text(
    alphabet=st.sampled_from(list("ab_'\"\\ é漢\n\x00")) | st.characters(codec="utf-8"),
    max_size=8,
)
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, float("inf"), float("-inf"), float("nan")]),
    keys,
    st.sampled_from([Colour.RED, Colour.BLUE, np.int64(7), np.float64(-0.0)]),
)
values = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(keys | st.integers(), inner, max_size=4),
        st.builds(Probe, inner, inner),
        st.builds(Pair, inner, inner),
    ),
    max_leaves=12,
)
#: Parameter pairs that may repeat a key, so the last value must win.
pairs = st.lists(
    st.tuples(st.sampled_from(["a", "b", "k'\\", "é"]) | keys, values), max_size=6
)


@given(value=values)
@settings(max_examples=300)
def test_config_digest_matches_reference(value):
    assert config_digest(value) == _sha16(_reference_canonical(value))


@given(params=pairs, unit_id=keys)
@settings(max_examples=300)
def test_unit_digest_matches_reference(params, unit_id):
    expected_params = {str(key): value for key, value in params}
    expected = _sha16(
        "\x1f".join(("probe", unit_id, _reference_canonical(expected_params)))
    )
    unit = WorkUnit(study="probe", unit_id=unit_id, params=iter(params))
    assert unit.digest == expected
    assert unit.digest == expected  # a second read serves the same digest
    assert WorkUnit(study="probe", unit_id=unit_id, params=expected_params).digest == expected


#: Identifier keys, which take the one-join canonical text, mixed with keys
#: that must not: ``"a b"`` (a space sorts before the closing quote, so
#: repr order differs from sort order), ``"a'"`` (repr switches to double
#: quotes), ``"é"`` (not ASCII), ``"1"`` and ``""``; non-``str`` keys are
#: normalized by ``str()``, so ``1`` and ``"1"`` collide.  The pool is small
#: so that pair lists repeat keys.
identifiers = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,3}", fullmatch=True)
unit_keys = st.one_of(
    identifiers,
    st.sampled_from(["a", "b", "a_", "A", "_", "a b", "a'", "é", "1", ""]),
    st.sampled_from([1, -2, None, 1.5, (1, "a"), True]),
)
unit_params = st.one_of(
    st.dictionaries(identifiers, values, max_size=6),
    st.dictionaries(unit_keys, values, max_size=6),
    st.lists(st.tuples(unit_keys, values), max_size=6),
)


@given(params=unit_params, as_iterator=st.booleans())
@settings(max_examples=300)
def test_unit_digest_matches_reference_for_every_kind_of_key(params, as_iterator):
    """``WorkUnit.digest`` is the sha256 over the reference canonical text
    of the normalized params (keys made ``str``, the last of a repeated key
    winning), whichever canonical path the keys take."""
    pairs = list(params.items()) if isinstance(params, dict) else params
    normalized = {str(key): value for key, value in pairs}
    expected = _sha16("\x1f".join(("probe", "u", _reference_canonical(normalized))))
    given_params = iter(pairs) if as_iterator else params
    unit = WorkUnit(study="probe", unit_id="u", params=given_params)
    assert unit.digest == expected
    assert unit.param_dict == normalized
