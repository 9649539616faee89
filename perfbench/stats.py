"""Order statistics and span arithmetic for the benchmark.

Pure functions, no imports from the package under test, so the self-test
in ``test_stats.py`` can check them in isolation.
"""

from __future__ import annotations

import math
import statistics
from collections import defaultdict

# A tail percentile must leave at least this many samples strictly beyond it.
TAIL_BEYOND = 10


def tail_level(n: int) -> int:
    """The highest whole percentile q >= 50 whose position ``q/100*(n-1)``
    among n sorted samples leaves at least ``TAIL_BEYOND`` samples beyond
    it; 50 when n is too small for any higher one."""
    for q in range(99, 50, -1):
        if n - 1 - math.floor(q / 100 * (n - 1)) >= TAIL_BEYOND:
            return q
    return 50


def summarize(values) -> dict:
    """Median and tail of a latency sample, with the tail's percentile and
    the sample count it rests on.

    The tail is the order statistic at or below its percentile's
    interpolation position, not a blend of two neighbours: repeated passes
    put several samples of one input next to each other, and a blend across
    two inputs would move with every small change of either."""
    n = len(values)
    if n == 0:
        return {"n": 0, "p50": 0.0, "tail": 0.0, "tail_q": 50}
    q = tail_level(n)
    data = sorted(values)
    p50 = statistics.median(data)
    tail = p50 if q == 50 else data[math.floor(q / 100 * (n - 1))]
    return {"n": n, "p50": p50, "tail": tail, "tail_q": q}


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(starts, ends, parents) -> list[float]:
    """Each span's duration minus the part of its interval that its child
    spans cover.  ``parents[i]`` is the index of span i's parent, or a
    negative number for a root."""
    children = defaultdict(list)
    for i, p in enumerate(parents):
        if p >= 0:
            children[p].append((starts[i], ends[i]))
    return [ends[i] - starts[i]
            - covered_length(children.get(i, ()), starts[i], ends[i])
            for i in range(len(starts))]


class SpanTotals:
    """Per-name totals over a list of spans ``(name, start, end, parent,
    tag)``: call counts, summed durations, summed self times, and the same
    split by tag."""

    def __init__(self, spans):
        names = [s[0] for s in spans]
        starts = [s[1] for s in spans]
        ends = [s[2] for s in spans]
        selfs = self_times(starts, ends, [s[3] for s in spans])
        self._count = defaultdict(int)
        self._total = defaultdict(float)
        self._self = defaultdict(float)
        self._tag_count = defaultdict(int)
        self._tag_total = defaultdict(float)
        for (name, start, end, _, tag), own in zip(spans, selfs):
            self._count[name] += 1
            self._total[name] += end - start
            self._self[name] += own
            self._tag_count[name, tag] += 1
            self._tag_total[name, tag] += end - start

    def count(self, name: str) -> int:
        return self._count[name]

    def total(self, name: str) -> float:
        return self._total[name]

    def self_total(self, name: str) -> float:
        return self._self[name]

    def tag_count(self, name: str, tag: int) -> int:
        return self._tag_count[name, tag]

    def tag_total(self, name: str, tag: int) -> float:
        return self._tag_total[name, tag]
