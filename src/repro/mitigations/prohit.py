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


class ProHIT(MitigationMechanism):
    """Probabilistic history tables for RowHammer victim tracking.

    Parameters
    ----------
    config:
        Shared mitigation configuration.
    hot_entries, cold_entries:
        Table sizes (the published design uses a handful of entries each).
    insert_probability:
        ``pi``: probability of inserting a new victim into the cold table.
    evict_probability:
        ``pe``: probability weight governing which cold entry is evicted.
    promote_probability:
        ``pt``: probability weight governing promotion into the hot table.
    """

    name = "ProHIT"

    def __init__(
        self,
        config: MitigationConfig,
        hot_entries: int = 4,
        cold_entries: int = 4,
        insert_probability: float = 0.1,
        evict_probability: float = 0.2,
        promote_probability: float = 0.2,
    ) -> None:
        super().__init__(config)
        if hot_entries <= 0 or cold_entries <= 0:
            raise ValueError("table sizes must be positive")
        self.hot_entries = hot_entries
        self.cold_entries = cold_entries
        self.insert_probability = insert_probability
        self.evict_probability = evict_probability
        self.promote_probability = promote_probability
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
        pt = self.promote_probability
        top = (1.0 - pt) + pt / max(1, len(self._hot) + 1)
        if self._rng.random() < top or not self._hot:
            position = 0
        else:
            position = int(self._rng.integers(0, len(self._hot)))
        self._hot.insert(position, key)
        if len(self._hot) > self.hot_entries:
            demoted = self._hot.pop()
            self._insert_cold(demoted, force=True)

    def _insert_cold(self, key: Tuple[int, int], force: bool = False) -> None:
        if key in self._cold:
            return
        if not force and self._rng.random() >= self.insert_probability:
            return
        if len(self._cold) >= self.cold_entries:
            pe = self.evict_probability
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
