"""PARA: Probabilistic Adjacent Row Activation [Kim+ ISCA'14], Section 6.1.

Every time a row is opened (and closed), PARA refreshes one of its adjacent
rows with a low probability ``p``.  PARA is stateless, which makes it the
easiest mechanism to scale: protecting a more vulnerable chip only requires
raising ``p``, at the cost of more refresh traffic.

The paper scales ``p`` with ``HC_first`` such that the probability of a
RowHammer failure stays below a target bit error rate of 1e-15 per hour of
continuous hammering, which is the calculation :func:`probability_for` does.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.mitigations.base import MitigationConfig, MitigationMechanism
from repro.utils.rng import make_rng

#: Consumer-memory reliability target the paper adopts (failures per hour).
TARGET_FAILURES_PER_HOUR = 1e-15


def probability_for(
    hcfirst: int,
    trc_ns: float,
    target_failures_per_hour: float = TARGET_FAILURES_PER_HOUR,
) -> float:
    """Adjacent-row refresh probability needed to meet the reliability target.

    A victim experiences a bit flip only if one of its aggressors is
    activated ``HC_first`` times with no intervening PARA refresh of the
    victim, which happens with probability ``(1 - p/2) ** HC_first`` per
    attack attempt (each activation refreshes the victim with probability
    ``p/2`` -- ``p`` to act at all, 1/2 to pick that side).  The number of
    attack attempts per hour is bounded by how many ``HC_first``-activation
    bursts fit in an hour of continuous hammering.

    >>> 0 < probability_for(2000, 46.0) < 1
    True
    """
    if hcfirst <= 0:
        raise ValueError("hcfirst must be positive")
    attack_duration_s = hcfirst * trc_ns * 1e-9
    attacks_per_hour = 3600.0 / attack_duration_s
    per_attack_budget = target_failures_per_hour / attacks_per_hour
    # (1 - p/2) ** hcfirst <= per_attack_budget
    per_activation_survival = per_attack_budget ** (1.0 / hcfirst)
    probability = 2.0 * (1.0 - per_activation_survival)
    return min(1.0, probability)


class PARA(MitigationMechanism):
    """Probabilistic adjacent row activation.

    ``p`` meets the paper's reliability target,
    :data:`TARGET_FAILURES_PER_HOUR`, at the configured ``HC_first``.
    """

    name = "PARA"

    def __init__(self, config: MitigationConfig) -> None:
        super().__init__(config)
        self.probability = probability_for(config.hcfirst, config.timings.trc_ns)
        self._rng = make_rng(config.seed, "para")

    def on_activate(self, bank: int, row: int, cycle: int) -> List[Tuple[int, int]]:
        if self._rng.random() >= self.probability:
            return []
        # Refresh one neighbour chosen uniformly at random.
        victims = self.config.adjacent_rows(row)
        if not victims:
            return []
        victim = victims[int(self._rng.integers(0, len(victims)))]
        return [(bank, victim)]
