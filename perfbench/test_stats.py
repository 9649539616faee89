"""Self-test of the benchmark's own arithmetic: the tail rule and span
self time.  Run with ``python3 -m pytest perfbench/test_stats.py``
(or ``python3 perfbench/test_stats.py``)."""

import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from stats import (SpanTotals, covered_length, self_times,  # noqa: E402
                   summarize, tail_level)


def test_tail_leaves_ten_samples_beyond():
    for n in range(20, 2000, 7):
        q = tail_level(n)
        data = list(range(n))
        assert sum(x > summarize(data)["tail"] for x in data) >= 10
        if q < 99:  # the next whole percentile would leave fewer
            assert n - 1 - math.floor((q + 1) / 100 * (n - 1)) < 10


def test_small_samples_report_the_median_as_tail():
    assert tail_level(5) == 50
    assert tail_level(19) == 50
    summary = summarize([3.0, 1.0, 4.0, 2.0])
    assert summary == {"n": 4, "p50": 2.5, "tail": 2.5, "tail_q": 50}
    assert summarize([])["n"] == 0


def test_tail_levels_at_known_counts():
    assert tail_level(34) == 72
    assert tail_level(100) == 90
    assert tail_level(10_000) == 99


def test_tail_is_one_sample_not_a_blend():
    # three passes over inputs costing 1, 5 and 9: the tail must be one of
    # those costs, never an interpolation between two of them
    data = [1.0] * 60 + [5.0] * 3 + [9.0] * 9
    assert summarize(data)["tail"] in (1.0, 5.0, 9.0)


def test_tail_falls_back_to_median_on_small_samples():
    assert tail_level(5) == 50
    assert tail_level(19) == 50
    summary = summarize([3.0, 1.0, 2.0])
    assert summary == {"n": 3, "p50": 2.0, "tail": 2.0, "tail_q": 50}
    assert summarize([])["n"] == 0


def test_tail_levels_at_known_counts():
    assert tail_level(34) == 72
    assert tail_level(100) == 90
    assert tail_level(10_000) == 99


def test_covered_length_merges_and_clips():
    assert covered_length([(1, 3), (2, 5), (7, 8)], 0, 10) == 5
    assert covered_length([(0, 4)], 1, 3) == 2
    assert covered_length([(5, 6)], 0, 4) == 0
    assert covered_length([], 0, 4) == 0


def test_self_time_subtracts_covered_child_time():
    # root 0..10 with children 1..3 and 2..6 (overlapping: 5 covered) and a
    # grandchild 4..5 inside the second child
    starts = [0.0, 1.0, 2.0, 4.0]
    ends = [10.0, 3.0, 6.0, 5.0]
    parents = [-1, 0, 0, 2]
    assert self_times(starts, ends, parents) == [5.0, 2.0, 3.0, 1.0]


def test_span_totals_by_name_and_tag():
    spans = [("op", 0.0, 10.0, -1, 0),
             ("verify", 1.0, 3.0, 0, 1),
             ("verify", 4.0, 8.0, 0, 0),
             ("is_prime", 5.0, 6.0, 2, 0)]
    totals = SpanTotals(spans)
    assert totals.count("verify") == 2
    assert totals.total("verify") == 6.0
    assert totals.self_total("op") == 4.0
    assert totals.self_total("verify") == 5.0
    assert totals.tag_total("verify", 1) == 2.0
    assert totals.tag_count("verify", 0) == 1
    assert totals.count("missing") == 0


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
    print("ok")
