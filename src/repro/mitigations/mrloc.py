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


class MRLoc(MitigationMechanism):
    """Locality-aware probabilistic victim refresh.

    Parameters
    ----------
    config:
        Shared mitigation configuration.
    queue_entries:
        Size of the victim-address queue.
    base_probability:
        Refresh probability for a victim re-seen after the longest interval
        the queue can represent; the probability scales up towards
        ``max_probability`` as the re-reference distance shrinks.
    max_probability:
        Refresh probability for a victim re-seen back to back.
    """

    name = "MRLoc"

    def __init__(
        self,
        config: MitigationConfig,
        queue_entries: int = 64,
        base_probability: float = 0.001,
        max_probability: float = 0.05,
    ) -> None:
        super().__init__(config)
        if queue_entries <= 0:
            raise ValueError("queue_entries must be positive")
        if not 0.0 < base_probability <= max_probability <= 1.0:
            raise ValueError("probabilities must satisfy 0 < base <= max <= 1")
        self.queue_entries = queue_entries
        self.base_probability = base_probability
        self.max_probability = max_probability
        #: victim -> insertion counter at last sighting (ordered = FIFO queue)
        self._queue: "OrderedDict[Tuple[int, int], int]" = OrderedDict()
        self._insertions = 0
        self._rng = make_rng(config.seed, "mrloc")

    def _refresh_probability(self, reuse_distance: int) -> float:
        """Probability of refreshing a victim re-seen ``reuse_distance`` insertions ago."""
        if reuse_distance <= 0:
            return self.max_probability
        span = max(1, self.queue_entries)
        closeness = max(0.0, 1.0 - (reuse_distance - 1) / span)
        return self.base_probability + closeness * (self.max_probability - self.base_probability)

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
                if len(self._queue) > self.queue_entries:
                    self._queue.popitem(last=False)
        return victims

    def on_victim_refreshed(self, bank: int, row: int, cycle: int) -> None:
        # A refreshed victim is safe again; drop it from the queue so its
        # history does not inflate future refresh probabilities.
        self._queue.pop((bank, row), None)
