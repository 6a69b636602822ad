"""ProHIT: probabilistic hot/cold history tables [Son+ DAC'17], Section 6.1.

ProHIT tracks potential victim rows in a pair of small tables ("hot" and
"cold") that it manages probabilistically to approximate the most frequently
hammered victims without counting every activation:

* when a row is activated, each adjacent (victim) row is looked up:
  - if it is in the hot table its priority is upgraded;
  - if it is in the cold table it is promoted into the hot table with high
    probability;
  - otherwise it is inserted into the cold table with probability ``pi``
    (evicting probabilistically when the table is full);
* at every periodic refresh command, the top entry of the hot table (the
  most-likely-hammered victim) is refreshed and removed.

The published design is tuned for ``HC_first`` = 2000 and provides no model
for re-tuning the tables and probabilities for other vulnerability levels,
which is why the paper evaluates it only at that point (Section 6.1).
"""

from __future__ import annotations

from typing import List, Tuple

from repro.mitigations.base import MitigationConfig, MitigationMechanism
from repro.utils.rng import make_rng

# The published design's parameters, tuned for HC_first = 2000 (Section 6.1).
#: Sizes of the hot and cold tables (a handful of entries each).
HOT_ENTRIES = 4
COLD_ENTRIES = 4
#: ``pi``: probability of inserting a new victim into the cold table.
INSERT_PROBABILITY = 0.1
#: ``pe``: probability weight governing which cold entry is evicted.
EVICT_PROBABILITY = 0.2
#: ``pt``: probability weight governing promotion into the hot table.
PROMOTE_PROBABILITY = 0.2


class ProHIT(MitigationMechanism):
    """Probabilistic history tables for RowHammer victim tracking.

    The tables and probabilities are the published design's values (the
    module constants); the paper evaluates ProHIT only at the ``HC_first``
    they are tuned for, so they are not configurable.
    """

    name = "ProHIT"

    def __init__(self, config: MitigationConfig) -> None:
        super().__init__(config)
        # Tables are ordered lists of (bank, row); index 0 is highest priority.
        self._hot: List[Tuple[int, int]] = []
        self._cold: List[Tuple[int, int]] = []
        self._rng = make_rng(config.seed, "prohit")

    # ------------------------------------------------------------------
    # Table management
    # ------------------------------------------------------------------
    def _upgrade_hot(self, key: Tuple[int, int]) -> None:
        index = self._hot.index(key)
        if index > 0:
            self._hot[index - 1], self._hot[index] = self._hot[index], self._hot[index - 1]

    def _promote_to_hot(self, key: Tuple[int, int]) -> None:
        self._cold.remove(key)
        pt = PROMOTE_PROBABILITY
        top = (1.0 - pt) + pt / max(1, len(self._hot) + 1)
        if self._rng.random() < top or not self._hot:
            position = 0
        else:
            position = int(self._rng.integers(0, len(self._hot)))
        self._hot.insert(position, key)
        if len(self._hot) > HOT_ENTRIES:
            demoted = self._hot.pop()
            self._insert_cold(demoted, force=True)

    def _insert_cold(self, key: Tuple[int, int], force: bool = False) -> None:
        if key in self._cold:
            return
        if not force and self._rng.random() >= INSERT_PROBABILITY:
            return
        if len(self._cold) >= COLD_ENTRIES:
            pe = EVICT_PROBABILITY
            least_recent = (1.0 - pe) + pe / len(self._cold)
            if self._rng.random() < least_recent:
                self._cold.pop()  # evict the least recently inserted entry
            else:
                self._cold.pop(int(self._rng.integers(0, len(self._cold))))
        self._cold.insert(0, key)

    # ------------------------------------------------------------------
    # Mechanism hooks
    # ------------------------------------------------------------------
    def on_activate(self, bank: int, row: int, cycle: int) -> List[Tuple[int, int]]:
        for victim in self.config.adjacent_rows(row):
            key = (bank, victim)
            if key in self._hot:
                self._upgrade_hot(key)
            elif key in self._cold:
                self._promote_to_hot(key)
            else:
                self._insert_cold(key)
        return []

    def on_refresh(self, cycle: int) -> List[Tuple[int, int]]:
        """Refresh the highest-priority hot entry alongside the periodic refresh."""
        if not self._hot:
            return []
        return [self._hot.pop(0)]
