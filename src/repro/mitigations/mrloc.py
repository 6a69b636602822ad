"""MRLoc: memory-locality-aware probabilistic refresh [You+ DAC'19], Section 6.1.

MRLoc keeps a small queue of recently seen victim-row addresses.  On every
activation it pushes the aggressor's adjacent rows into the queue and, for a
victim that is already present, refreshes it with a probability that grows
the more recently the victim was last seen (strong temporal locality of
hammering means a recently repeated victim is likely under attack).

Like ProHIT, the published design is tuned empirically for ``HC_first`` =
2000 and offers no rule for scaling its queue size or probability curve to
other vulnerability levels, so the paper evaluates it at that single point.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Tuple

from repro.mitigations.base import MitigationConfig, MitigationMechanism
from repro.utils.rng import make_rng

# The published design's parameters, tuned for HC_first = 2000 (Section 6.1).
#: Size of the victim-address queue.
QUEUE_ENTRIES = 64
#: Refresh probability for a victim re-seen after the longest interval the
#: queue can represent; it scales up towards :data:`MAX_PROBABILITY` as the
#: re-reference distance shrinks.
BASE_PROBABILITY = 0.001
#: Refresh probability for a victim re-seen back to back.
MAX_PROBABILITY = 0.05


class MRLoc(MitigationMechanism):
    """Locality-aware probabilistic victim refresh.

    The queue size and probability curve are the published design's values
    (the module constants); the paper evaluates MRLoc only at the
    ``HC_first`` they are tuned for, so they are not configurable.
    """

    name = "MRLoc"

    def __init__(self, config: MitigationConfig) -> None:
        super().__init__(config)
        #: victim -> insertion counter at last sighting (ordered = FIFO queue)
        self._queue: "OrderedDict[Tuple[int, int], int]" = OrderedDict()
        self._insertions = 0
        self._rng = make_rng(config.seed, "mrloc")

    def _refresh_probability(self, reuse_distance: int) -> float:
        """Probability of refreshing a victim re-seen ``reuse_distance`` insertions ago."""
        if reuse_distance <= 0:
            return MAX_PROBABILITY
        closeness = max(0.0, 1.0 - (reuse_distance - 1) / QUEUE_ENTRIES)
        return BASE_PROBABILITY + closeness * (MAX_PROBABILITY - BASE_PROBABILITY)

    def on_activate(self, bank: int, row: int, cycle: int) -> List[Tuple[int, int]]:
        victims: List[Tuple[int, int]] = []
        for victim_row in self.config.adjacent_rows(row):
            key = (bank, victim_row)
            self._insertions += 1
            if key in self._queue:
                reuse_distance = self._insertions - self._queue[key]
                probability = self._refresh_probability(reuse_distance)
                self._queue.move_to_end(key)
                self._queue[key] = self._insertions
                if self._rng.random() < probability:
                    victims.append(key)
            else:
                self._queue[key] = self._insertions
                if len(self._queue) > QUEUE_ENTRIES:
                    self._queue.popitem(last=False)
        return victims

    def on_victim_refreshed(self, bank: int, row: int, cycle: int) -> None:
        # A refreshed victim is safe again; drop it from the queue so its
        # history does not inflate future refresh probabilities.
        self._queue.pop((bank, row), None)
