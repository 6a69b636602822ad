"""Logical-to-physical DRAM-internal row address remapping.

DRAM manufacturers remap the row addresses the memory controller sees
(logical rows) onto physical wordlines in undocumented, confidential ways
(paper Section 4.3).  The paper reverse-engineers these mappings by
exploiting the fact that hammering a row disturbs its physical neighbours.

Two remapping schemes are modelled:

* :class:`IdentityRemapper` -- logical row N maps to physical wordline N
  (the common case for the paper's DDR3/DDR4 chips).
* :class:`PairedWordlineRemapper` -- every pair of consecutive logical rows
  shares one internal wordline, which is what the paper observes in
  manufacturer B's LPDDR4-1x chips: hammering logical rows N-2 and N+2 is
  required to double-side-hammer logical row N, and bit flips appear in the
  four logically adjacent rows.

Tier-1 checks that :func:`~repro.core.row_mapping.infer_row_mapping`, the
paper's single-row hammering method, recovers the remapper of every Table 1
configuration.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import List


class RowRemapper(ABC):
    """Maps logical row numbers (as seen by the memory controller) to
    physical wordline indices inside the DRAM array."""

    #: short identifier used by profiles / population tables
    name: str = "abstract"

    @abstractmethod
    def logical_to_physical(self, logical_row: int) -> int:
        """Return the physical wordline index for a logical row."""

    @abstractmethod
    def physical_to_logical(self, physical_row: int) -> List[int]:
        """Return all logical rows that map onto a physical wordline."""

    def num_wordlines(self, rows_per_bank: int) -> int:
        """Number of physical wordlines backing ``rows_per_bank`` logical rows."""
        return rows_per_bank

    def aggressors_for(self, victim_logical_row: int) -> List[int]:
        """Logical rows to activate for a worst-case double-sided hammer of
        ``victim_logical_row``.

        These are the logical rows whose physical wordlines are immediately
        adjacent to the victim's physical wordline.
        """
        physical = self.logical_to_physical(victim_logical_row)
        aggressors: List[int] = []
        for neighbour in (physical - 1, physical + 1):
            for logical in self.physical_to_logical(neighbour):
                if logical not in aggressors:
                    aggressors.append(logical)
        return aggressors

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"{type(self).__name__}()"


class IdentityRemapper(RowRemapper):
    """Logical row N is physical wordline N."""

    name = "identity"

    def logical_to_physical(self, logical_row: int) -> int:
        return logical_row

    def physical_to_logical(self, physical_row: int) -> List[int]:
        return [physical_row]


class PairedWordlineRemapper(RowRemapper):
    """Every two consecutive logical rows share one physical wordline.

    Logical rows ``2k`` and ``2k + 1`` both map onto physical wordline ``k``.
    Activating either logical row activates the shared wordline, so a victim
    at logical row N must be hammered by activating logical rows N - 2 and
    N + 2 (paper Section 4.3, manufacturer B LPDDR4-1x).
    """

    name = "paired"

    def logical_to_physical(self, logical_row: int) -> int:
        return logical_row // 2

    def physical_to_logical(self, physical_row: int) -> List[int]:
        return [physical_row * 2, physical_row * 2 + 1]

    def num_wordlines(self, rows_per_bank: int) -> int:
        return (rows_per_bank + 1) // 2


_REMAPPERS = {
    IdentityRemapper.name: IdentityRemapper,
    PairedWordlineRemapper.name: PairedWordlineRemapper,
}


def remapper_for(name: str) -> RowRemapper:
    """Instantiate a remapper by its registry name.

    >>> remapper_for("identity").logical_to_physical(7)
    7
    """
    try:
        return _REMAPPERS[name]()
    except KeyError:
        raise ValueError(
            f"unknown remapper {name!r}; available: {sorted(_REMAPPERS)}"
        ) from None
