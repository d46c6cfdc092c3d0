"""Self time over a hand-built span tree, and the tail-percentile rule."""

from types import SimpleNamespace

import pytest

from stats import (MIN_BEYOND, normalized, quartiles, self_times, tail,
                   union_length)


def span(start, end, parent):
    return SimpleNamespace(start=start, end=end, parent=parent)


def test_union_length_counts_overlaps_once():
    assert union_length([]) == 0
    assert union_length([(0, 2), (1, 3), (5, 6), (5.5, 5.7)]) == 4


def test_self_time_with_overlapping_children():
    spans = [
        span(0, 10, -1),   # 0: root
        span(1, 4, 0),     # 1: child
        span(3, 6, 0),     # 2: child overlapping child 1
        span(8, 9, 0),     # 3: child
        span(1.5, 3.5, 1), # 4: grandchild, charged to child 1 only
        span(9.5, 12, 0),  # 5: child running past its parent's end
    ]
    assert self_times(spans) == pytest.approx([
        10 - (5 + 1 + 0.5),  # children cover [1,6], [8,9], [9.5,10]
        3 - 2,
        3,
        1,
        2,
        2.5,
    ])


def test_tail_needs_min_beyond_samples():
    samples = list(range(1000))
    p99 = tail(samples, 0.99)
    assert p99 == 989
    assert sum(s > p99 for s in samples) >= MIN_BEYOND
    assert tail(list(range(999)), 0.99) is None
    assert tail(list(range(19)), 0.5) is None
    assert tail(list(range(21)), 0.5) == 10
    with pytest.raises(ValueError):
        tail(samples, 1.0)


def test_quartiles_match_statistics_exclusive_method():
    assert quartiles([4.0]) == (4.0, 4.0, 4.0)
    assert quartiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]) == (2.75, 5.5, 8.25)


def test_normalized_divides_by_nearby_reference_times():
    # reference samples: (midpoint, duration); the host is twice as slow
    # from t = 10 on
    refs = [(0.5, 1.0), (1.5, 1.0), (10.5, 2.0), (11.5, 2.0)]
    starts = [1.0, 10.8, 5.0, 20.0]
    latencies = [0.2, 0.4, 0.2, 0.4]
    assert normalized(starts, latencies, refs, window=1.0) == pytest.approx([
        0.2,          # samples at 0.5 and 1.5
        0.2,          # samples at 10.5 and 11.5
        0.2,          # none within 1 s: nearest is 1.5
        0.2,          # none within 1 s: nearest is 11.5
    ])
