"""Data patterns used by the RowHammer characterization (Section 4.3).

Each pattern is described by the byte written into the victim row (and every
row at an even offset from it) and the byte written into the aggressor rows
(and every row at an odd offset).  The paper tests eight patterns:

==============  ====  ===========  ==============
Pattern         Abbr  Victim byte  Aggressor byte
==============  ====  ===========  ==============
Solid0          SO0   0x00         0x00
Solid1          SO1   0xFF         0xFF
ColStripe0      CS0   0x55         0x55
ColStripe1      CS1   0xAA         0xAA
Checkered0      CH0   0x55         0xAA
Checkered1      CH1   0xAA         0x55
RowStripe0      RS0   0x00         0xFF
RowStripe1      RS1   0xFF         0x00
==============  ====  ===========  ==============
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple, Union

from repro.dram.vulnerability import VulnerabilityProfile


@dataclass(frozen=True)
class DataPattern:
    """A repeated-byte data pattern written before hammering.

    ``victim_byte`` fills the victim row and every row at an even offset
    from it; ``aggressor_byte`` fills the aggressor rows and every row at an
    odd offset (footnote 3 of the paper).
    """

    name: str
    abbreviation: str
    victim_byte: int
    aggressor_byte: int

    def __post_init__(self) -> None:
        for byte in (self.victim_byte, self.aggressor_byte):
            if not 0 <= byte <= 0xFF:
                raise ValueError(f"pattern byte {byte:#x} out of range")

    @property
    def is_uniform(self) -> bool:
        """Whether victim and aggressor rows store the same byte."""
        return self.victim_byte == self.aggressor_byte

    def inverse(self) -> "DataPattern":
        """The pattern with victim and aggressor bytes bit-inverted."""
        return DataPattern(
            name=f"{self.name}-inverse",
            abbreviation=f"~{self.abbreviation}",
            victim_byte=self.victim_byte ^ 0xFF,
            aggressor_byte=self.aggressor_byte ^ 0xFF,
        )

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.abbreviation


SOLID0 = DataPattern("Solid0", "SO0", 0x00, 0x00)
SOLID1 = DataPattern("Solid1", "SO1", 0xFF, 0xFF)
COLSTRIPE0 = DataPattern("ColStripe0", "CS0", 0x55, 0x55)
COLSTRIPE1 = DataPattern("ColStripe1", "CS1", 0xAA, 0xAA)
CHECKERED0 = DataPattern("Checkered0", "CH0", 0x55, 0xAA)
CHECKERED1 = DataPattern("Checkered1", "CH1", 0xAA, 0x55)
ROWSTRIPE0 = DataPattern("RowStripe0", "RS0", 0x00, 0xFF)
ROWSTRIPE1 = DataPattern("RowStripe1", "RS1", 0xFF, 0x00)

#: The eight standard patterns in the order the paper plots them (Figure 4).
STANDARD_PATTERNS: Tuple[DataPattern, ...] = (
    ROWSTRIPE0,
    ROWSTRIPE1,
    COLSTRIPE0,
    COLSTRIPE1,
    CHECKERED0,
    CHECKERED1,
    SOLID0,
    SOLID1,
)

_BY_NAME: Dict[str, DataPattern] = {}
for _pattern in STANDARD_PATTERNS:
    _BY_NAME[_pattern.name] = _pattern
    _BY_NAME[_pattern.abbreviation] = _pattern


def pattern_by_name(name: str) -> DataPattern:
    """Look up a standard pattern by full name or abbreviation.

    >>> pattern_by_name("RS1").name
    'RowStripe1'
    """
    try:
        return _BY_NAME[name]
    except KeyError:
        raise ValueError(
            f"unknown data pattern {name!r}; known: {sorted(set(_BY_NAME))}"
        ) from None


#: Worst-case pattern per coupling-class mix.  Every study that defaults its
#: data pattern calls :func:`worst_case_pattern` once per hammered victim;
#: caching by the coupling classes (the only profile state the coverage
#: evaluation reads, and a hashable tuple of frozen dataclasses) turns the
#: per-victim recomputation in sweeps into a dictionary lookup.
_WORST_CASE_CACHE: Dict[tuple, DataPattern] = {}


def worst_case_pattern(profile: VulnerabilityProfile) -> DataPattern:
    """The standard pattern expected to expose the most flips for a profile.

    The paper characterizes each chip with its worst-case pattern
    (Section 5.2); this helper evaluates the profile's coupling-class mix
    against every standard pattern and returns the most effective one.
    """
    key = profile.coupling_classes
    cached = _WORST_CASE_CACHE.get(key)
    if cached is None:
        cached = max(
            STANDARD_PATTERNS,
            key=lambda dp: profile.coverage_for_bytes(dp.victim_byte, dp.aggressor_byte),
        )
        _WORST_CASE_CACHE[key] = cached
    return cached


def check_pattern(pattern: Union[str, DataPattern, None]) -> None:
    """Raise ``ValueError`` for a pattern name :func:`pattern_by_name` does not know.

    Study configs call this at construction, so a misspelt name fails
    before any hammering instead of when its work unit runs.
    """
    if isinstance(pattern, str):
        pattern_by_name(pattern)


def resolve_pattern(
    pattern: Union[str, DataPattern, None], profile: VulnerabilityProfile
) -> DataPattern:
    """The data pattern a study config selects for one chip.

    ``None`` means the chip's worst-case pattern, a name is looked up with
    :func:`pattern_by_name`, and a :class:`DataPattern` (for example a
    non-standard :meth:`DataPattern.inverse`) passes through.
    """
    if pattern is None:
        return worst_case_pattern(profile)
    if isinstance(pattern, DataPattern):
        return pattern
    return pattern_by_name(pattern)
