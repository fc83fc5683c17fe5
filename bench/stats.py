"""Order statistics and the base-vs-head verdicts of ``run.py compare``."""

from __future__ import annotations

import math
import statistics
from typing import Dict, List, Optional, Sequence

#: a tail percentile is reported only with at least this many samples beyond it
MIN_TAIL_SAMPLES = 10
#: a gain is claimed only over at least this many base/head pairs
MIN_PAIRS = 10


def percentile(values: Sequence[float], q: float) -> float:
    """The *q*-th percentile (linear interpolation between order statistics).

    The median is always defined.  A tail percentile (``q > 50``) is refused
    with ``ValueError`` unless at least :data:`MIN_TAIL_SAMPLES` samples lie
    beyond it, because fewer cannot estimate it.
    """
    if not values:
        raise ValueError("percentile of no samples")
    if not 0.0 <= q <= 100.0:
        raise ValueError("q must be within [0, 100]")
    n = len(values)
    beyond = n - math.ceil(n * q / 100.0)
    if q > 50.0 and beyond < MIN_TAIL_SAMPLES:
        raise ValueError(
            f"p{q:g} needs {MIN_TAIL_SAMPLES} samples beyond it; "
            f"{n} samples leave {beyond}"
        )
    ordered = sorted(values)
    pos = (n - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, n - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_percentile(values: Sequence[float], q: float) -> Optional[float]:
    """:func:`percentile`, or None where the sample cannot support it."""
    try:
        return percentile(values, q)
    except ValueError:
        return None


def quartiles(values: Sequence[float]):
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def verdict(
    base: Sequence[float], head: Sequence[float], better: str, bound: float
) -> Dict[str, object]:
    """Classify one (metric, workload) pairing of paired base/head runs.

    ``improved``: over at least :data:`MIN_PAIRS` pairs, the head wins at
    least nine tenths of them (ties count for neither) and the medians
    differ by more than the base's own interquartile distance.  ``regressed``: the head median is worse than
    the base median by more than *bound*.  Otherwise ``unchanged`` — unless
    the base spread exceeds *bound*, which makes the comparison
    ``unresolved`` except when every head run beats every base run.
    """
    if better not in ("lower", "higher"):
        raise ValueError("better must be 'lower' or 'higher'")
    sign = 1.0 if better == "lower" else -1.0
    bq1, bmed, bq3 = quartiles(base)
    hq1, hmed, hq3 = quartiles(head)
    pairs = list(zip(base, head))
    wins = sum(1 for b, h in pairs if sign * (b - h) > 0)
    win_fraction = wins / len(pairs) if pairs else 0.0
    worse_by = sign * (hmed - bmed) / abs(bmed) if bmed else 0.0
    base_spread = (bq3 - bq1) / abs(bmed) if bmed else math.inf
    if len(pairs) >= MIN_PAIRS and win_fraction >= 0.9 and abs(hmed - bmed) > (bq3 - bq1):
        status = "improved"
    elif worse_by > bound:
        status = "regressed"
    elif base_spread > bound and not all(
        sign * (b - h) > 0 for b in base for h in head
    ):
        status = "unresolved"
    else:
        status = "unchanged"
    return {
        "status": status,
        "base": (bq1, bmed, bq3),
        "head": (hq1, hmed, hq3),
        "change": (hmed - bmed) / abs(bmed) if bmed else 0.0,
        "win_fraction": win_fraction,
        "pairs": len(pairs),
        "base_spread": base_spread,
    }


def changed_counts(
    base: Dict[str, float], head: Dict[str, float]
) -> List[str]:
    """Names of exact counts whose values differ (or exist on one side only)."""
    return sorted(
        name
        for name in set(base) | set(head)
        if base.get(name) != head.get(name)
    )
