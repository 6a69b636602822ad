"""Binary search helpers for minimum-hammer-count style queries.

Several studies need "the smallest hammer count at which some condition
first holds" (the first bit flip anywhere, the first 64-bit word with two
flips, ...).  Because the disturbance model is monotone in hammer count --
more hammers only ever add exposure -- a binary search over HC is sound.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Tuple


def minimal_hammer_count(
    condition: Callable[[int], bool],
    hc_max: int,
    hc_min: int = 1,
    relative_precision: float = 0.02,
) -> Optional[int]:
    """Find the smallest hammer count for which ``condition`` holds.

    Parameters
    ----------
    condition:
        Monotone predicate over hammer count (False below some threshold,
        True at and above it).  It is evaluated lazily; each evaluation
        typically runs a full hammer test.
    hc_max:
        Upper limit of the search (the paper's 150k-hammer test ceiling for
        most studies).
    hc_min:
        Lower limit of the search.
    relative_precision:
        Stop once the bracket is within this relative width; the returned
        value is the smallest hammer count confirmed to satisfy the
        condition.

    Returns
    -------
    The minimal satisfying hammer count, or ``None`` if the condition does
    not hold even at ``hc_max``.
    """
    if hc_max < hc_min:
        raise ValueError("hc_max must be >= hc_min")
    if not 0 < relative_precision < 1:
        raise ValueError("relative_precision must be in (0, 1)")
    if not condition(hc_max):
        return None
    low = hc_min
    high = hc_max
    if condition(hc_min):
        return hc_min
    # Invariant: condition(low) is False, condition(high) is True.
    while high - low > max(1, int(relative_precision * high)):
        mid = (low + high) // 2
        if condition(mid):
            high = mid
        else:
            low = mid
    return high


#: Ratio between consecutive levels of :func:`descend_and_search`'s descent.
_DESCENT_FACTOR = 2.0


def descend_and_search(
    victims: Sequence[int],
    evaluate: Callable[[int, int], bool],
    hammer_limit: int,
    relative_precision: float = 0.02,
    max_candidates: int = 32,
) -> Tuple[Optional[int], Optional[int], int]:
    """Find the smallest hammer count at which *any* victim satisfies a predicate.

    The naive approach -- binary-searching every victim row -- is wasteful:
    at high hammer counts every row satisfies the predicate and gives no
    information about which row contains the weakest cell.  Instead the
    search first performs a *geometric descent*: starting at the hammer
    limit it repeatedly halves the hammer count,
    keeping only the victims that still satisfy the predicate (monotonicity
    guarantees the globally weakest victim is always retained).  Once a
    level produces no satisfying victim, the surviving candidates from the
    previous level are binary-searched within the final bracket.

    Parameters
    ----------
    victims:
        Candidate victim rows.
    evaluate:
        ``evaluate(victim, hammer_count) -> bool`` monotone predicate.
    hammer_limit:
        Upper bound of the search.
    relative_precision:
        Precision of the final per-victim binary search.
    max_candidates:
        Cap on how many surviving victims are binary-searched.

    Returns
    -------
    ``(best_hc, best_victim, candidates_examined)`` where ``best_hc`` is
    ``None`` if no victim satisfies the predicate even at the limit.
    """
    if max_candidates < 1:
        raise ValueError("max_candidates must be at least 1")
    level = hammer_limit
    satisfied = [victim for victim in victims if evaluate(victim, level)]
    if not satisfied:
        return None, None, 0

    lower_bound = 1
    while level > 1:
        next_level = max(1, int(level / _DESCENT_FACTOR))
        if next_level == level:
            break
        still_satisfied = [victim for victim in satisfied if evaluate(victim, next_level)]
        if still_satisfied:
            satisfied = still_satisfied
            level = next_level
        else:
            lower_bound = next_level
            break
        if level == 1:
            break

    candidates = satisfied[:max_candidates]
    best_hc: Optional[int] = None
    best_victim: Optional[int] = None
    for victim in candidates:
        upper = level if best_hc is None else min(level, best_hc)
        if best_hc is not None and not evaluate(victim, best_hc):
            continue
        found = minimal_hammer_count(
            lambda hc, victim=victim: evaluate(victim, hc),
            hc_max=upper,
            hc_min=lower_bound,
            relative_precision=relative_precision,
        )
        if found is not None and (best_hc is None or found < best_hc):
            best_hc = found
            best_victim = victim
    return best_hc, best_victim, len(candidates)
