"""Order statistics and interval arithmetic used by the benchmark.

Kept free of numpy and of codanorm so the self-tests can check them in
isolation.
"""

from __future__ import annotations

import math
import statistics

#: A tail percentile must leave at least this many samples above it.
TAIL_BEYOND = 10


def nearest_rank(sorted_values, q):
    """Value at percentile ``q`` (0-100) by the nearest-rank rule: the
    ``ceil(q/100 * n)``-th smallest sample (the smallest for ``q = 0``)."""
    n = len(sorted_values)
    if n == 0:
        raise ValueError("no samples")
    k = max(1, math.ceil(q / 100.0 * n - 1e-9))
    return sorted_values[min(k, n) - 1]


def tail_percentile(n, beyond=TAIL_BEYOND):
    """Highest percentile, on a 0.1 grid, whose nearest-rank sample leaves
    at least ``beyond`` samples above it.  ``None`` when ``n <= beyond``."""
    if n <= beyond:
        return None
    q = math.floor(1000.0 * (n - beyond) / n) / 10.0
    # guard the floor against float round-up: step down until it holds
    while q > 0 and n - max(1, math.ceil(q / 100.0 * n - 1e-9)) < beyond:
        q = round(q - 0.1, 1)
    return q


def latency_summary(latencies):
    """``(n, median, tail_q, tail_value)``; with ten samples or fewer the
    tail is the maximum and ``tail_q`` is 100."""
    values = sorted(latencies)
    n = len(values)
    q = tail_percentile(n)
    if q is None:
        q = 100.0
    return n, statistics.median(values), q, nearest_rank(values, q)


def union_length(intervals):
    """Total length covered by a set of ``(start, end)`` intervals, counting
    overlaps once."""
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


def self_times(spans):
    """Self time of each span: its duration minus the union of its direct
    children's intervals (clipped to the span).

    ``spans`` is a sequence of ``(start, end, parent_index)`` with
    ``parent_index`` -1 for a root.
    """
    children = [[] for _ in spans]
    for idx, (_, _, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append(idx)
    out = []
    for idx, (start, end, _) in enumerate(spans):
        clipped = [
            (max(spans[c][0], start), min(spans[c][1], end))
            for c in children[idx]
            if spans[c][1] > start and spans[c][0] < end
        ]
        out.append((end - start) - union_length(clipped))
    return out
