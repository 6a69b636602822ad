"""Pins of every cache key the registered studies produce.

A store entry is found by its :class:`~repro.experiments.store.CacheKey`
and the filename derived from it, so a change to how units, config digests
or chip digests are computed silently orphans every existing store.
:data:`STORE_KEY_DIGEST` hashes the keys and filenames of every unit of the
decomposed studies on small configs, one whole-study key per undecomposed
chip study, and the config digest of every built-in study's default
config.  The property tests check the canonical text behind unit and
config digests against a verbatim copy of the reference ``_canonical``
below, over scalar, nested and dataclass values.

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

#: First 16 hex digits of a sha256 over every key listed by :func:`key_lines`.
STORE_KEY_DIGEST = "fbb0c9d9aee546f2"

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
    return "\x1f".join(
        (key.study, key.config_digest, key.chip_digest, key.unit_digest, key.filename)
    )


def key_lines():
    """One line per pinned key or config digest, in a fixed order."""
    chips = ExperimentSession.from_table1(
        chips_per_config=1, seed=7, geometry=GEOMETRY, configurations=CONFIGURATIONS
    ).chips
    assert len(chips) == 2
    lines = []
    for name, config in (
        ("fig10-mitigations", MitigationStudyConfig(**FIG10_SMALL)),
        ("fig10-mitigations-full", FullMitigationStudyConfig(**FIG10_SMALL)),
    ):
        digest = config_digest(config)
        for unit in get_study(name).units_for(config):
            lines.append(_key_line(cache_key(name, digest, None, unit)))
    for name in ("alg1-characterization", "fig4-coverage"):
        spec = get_study(name)
        config = spec.default_config()
        digest = config_digest(config)
        for chip in chips:
            for unit in spec.units_for(config):
                lines.append(_key_line(cache_key(name, digest, chip, unit)))
    for name in UNDECOMPOSED_CHIP_STUDIES:
        spec = get_study(name)
        (unit,) = spec.units_for()
        digest = config_digest(spec.default_config())
        for chip in chips:
            lines.append(_key_line(cache_key(name, digest, chip, unit)))
    for name in BUILTIN_STUDIES:
        lines.append(f"{name}\x1f{config_digest(get_study(name).default_config())}")
    return lines


def test_store_keys_and_config_digests_are_pinned():
    assert set(BUILTIN_STUDIES) <= set(list_studies())
    lines = key_lines()
    assert len(lines) == 85
    assert _sha16("\n".join(lines)) == STORE_KEY_DIGEST


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
