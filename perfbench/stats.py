"""Order statistics and span arithmetic shared by the runner and report.

Tail percentiles follow the rule of reporting only a percentile that
has at least ``MIN_BEYOND`` samples above it; with fewer, the tail is
not resolved and ``tail`` returns None rather than a number that one
outlier decides.
"""

from __future__ import annotations

import bisect
import math
import statistics

MIN_BEYOND = 10


def tail(samples, q: float):
    """Nearest-rank q-quantile of ``samples``, or None when fewer than
    ``MIN_BEYOND`` samples lie beyond it."""
    if not 0 < q < 1:
        raise ValueError(f"quantile must lie in (0, 1), got {q}")
    n = len(samples)
    rank = math.ceil(q * n)  # 1-based
    if rank < 1 or n - rank < MIN_BEYOND:
        return None
    return sorted(samples)[rank - 1]


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives
    them; a single value is its own quartiles."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def union_length(intervals) -> float:
    """Total length covered by (start, end) intervals, overlaps once."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> list[float]:
    """Self time of every span: its duration minus the union of its
    direct children's intervals, clipped to its own interval.

    ``spans`` is a sequence of objects with ``start``, ``end`` and
    ``parent`` (the parent's index in ``spans``, or -1 for a root).
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        kids = [(max(a, s.start), min(b, s.end))
                for a, b in children.get(i, ()) if b > s.start and a < s.end]
        out.append((s.end - s.start) - union_length(kids))
    return out


def normalized(starts, latencies, refs, window: float) -> list[float]:
    """Each operation's latency divided by the mean duration of the
    reference samples whose midpoints lie within ``window`` seconds of
    the operation's midpoint (the nearest sample when none does).

    ``starts`` and ``latencies`` describe the operations; ``refs`` is a
    non-empty list of (midpoint, duration) in increasing midpoint order.
    """
    mids = [m for m, _ in refs]
    out = []
    for start, lat in zip(starts, latencies):
        mid = start + lat / 2
        lo = bisect.bisect_left(mids, mid - window)
        hi = bisect.bisect_right(mids, mid + window)
        if lo == hi:
            k = bisect.bisect_left(mids, mid)
            if k == len(mids) or k > 0 and mid - mids[k - 1] < mids[k] - mid:
                k -= 1
            lo, hi = k, k + 1
        out.append(lat / statistics.fmean(d for _, d in refs[lo:hi]))
    return out
