"""Percentiles, spreads and the virtual-clock digest."""

from __future__ import annotations

import hashlib
import json
import statistics

#: Percentile ladder a tail is picked from (the paper's Fig. 8 points).
LADDER = (50.0, 90.0, 99.0, 99.9, 99.99)
#: A percentile is reported only with this many samples beyond it.
MIN_BEYOND = 10


def percentile(samples, pct: float) -> float:
    """Nearest-rank percentile of ``samples`` (any order, non-empty)."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("percentile of no samples")
    # Integer arithmetic on hundredths of a percent: no float slop at
    # exactly 1000 samples / p99.9.
    rank = -(-len(ordered) * round(pct * 100) // 10000)
    return ordered[min(len(ordered), max(1, rank)) - 1]


def supported_tail(count: int) -> float:
    """Highest ladder percentile with >= MIN_BEYOND samples beyond it.

    Falls back to the median: 20 samples support p50 only, 100 support
    p90, 1000 support p99.
    """
    best = LADDER[0]
    for pct in LADDER:
        beyond = count * (10000 - round(pct * 100)) // 10000
        if beyond >= MIN_BEYOND:
            best = pct
    return best


def summarize(samples, tail_pct: float = LADDER[-1]) -> dict:
    """Median, the tail percentile, and the count.

    The tail is ``tail_pct`` when the sample supports it and the
    highest supported ladder percentile otherwise.
    """
    ordered = sorted(samples)
    tail_pct = min(tail_pct, supported_tail(len(ordered)))
    return {
        "n": len(ordered),
        "p50": percentile(ordered, 50.0),
        "tail_pct": tail_pct,
        "tail": percentile(ordered, tail_pct),
    }


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives."""
    if len(values) < 2:
        only = float(values[0])
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread_share(values) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def digest(payload) -> str:
    """Short stable hash of virtual samples and counts.

    Floats are hashed by ``repr`` (exact), so two runs agree only when
    every virtual sample agrees to the last bit.
    """
    text = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]
