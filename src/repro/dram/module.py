"""DRAM module (DIMM / package) model: a set of chips tested together.

The paper reports populations both at chip and module granularity
(Table 1, and the per-module inventories in appendix Tables 7 and 8).  A
:class:`DramModule` groups chips that share a type-node configuration and
manufacturer and carries the module-level metadata those tables record.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.dram.chip import DramChip
from repro.dram.vulnerability import VulnerabilityProfile


@dataclass
class DramModule:
    """A DRAM module: several chips operating in lockstep.

    Attributes
    ----------
    module_id:
        Identifier such as ``"A17"`` (manufacturer letter + index), matching
        the paper's appendix tables.
    profile:
        Vulnerability profile shared by all chips on the module.
    chips:
        The chips mounted on the module.
    manufacture_date:
        ``"yy-ww"`` manufacture date string when known.
    frequency_mts:
        Data rate in MT/s.
    trc_ns:
        Activate-to-activate time of the module's speed bin.
    size_gb:
        Module capacity in gigabytes.
    pins:
        Chip data width (``"x4"``, ``"x8"`` or ``"x16"``).
    """

    module_id: str
    profile: VulnerabilityProfile
    chips: List[DramChip] = field(default_factory=list)
    manufacture_date: Optional[str] = None
    frequency_mts: Optional[int] = None
    trc_ns: Optional[float] = None
    size_gb: Optional[float] = None
    pins: Optional[str] = None

    @property
    def num_chips(self) -> int:
        """Number of chips on the module."""
        return len(self.chips)

    @property
    def manufacturer(self) -> str:
        """Manufacturer label (A, B or C)."""
        return self.profile.manufacturer

    @property
    def type_node(self) -> str:
        """Type-node configuration string (for example ``"DDR4-new"``)."""
        return self.profile.type_node.value

    def min_hcfirst_target(self) -> Optional[float]:
        """Smallest chip-level ``HC_first`` target on the module.

        Returns ``None`` for an empty module.
        """
        if not self.chips:
            return None
        return min(chip.hcfirst_target for chip in self.chips)

    def __iter__(self):
        return iter(self.chips)

    def __len__(self) -> int:
        return len(self.chips)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"DramModule(id={self.module_id!r}, config={self.type_node}/"
            f"{self.manufacturer}, chips={self.num_chips})"
        )
