"""Tests of the benchmark's own arithmetic and tracer.

Run with ``python -m pytest planbench/test_harness.py`` from the
repository root; none of them imports the planner.
"""

import math
import threading

import pytest

from harness import (Span, Tracer, covered, geomean, lateness, outermost,
                     percentile, self_times, tail_percentile,
                     unattributed_share)


# -- tail percentile ------------------------------------------------------ #
def test_tail_needs_ten_samples_beyond():
    values = list(range(1, 101))          # 1..100
    p, value, beyond = tail_percentile(values)
    # p95 has 5 beyond, p90 has exactly 10 beyond: p90 is the tail
    assert (p, value, beyond) == (90.0, 90, 10)


def test_tail_moves_up_with_more_samples():
    values = list(range(1, 1001))
    p, value, beyond = tail_percentile(values)
    assert (p, value, beyond) == (99.0, 990, 10)


def test_tail_counts_ties_as_not_beyond():
    values = [1.0] * 5 + [5.0] * 20
    # p75 is 5.0 with nothing strictly above it; p50 too
    assert tail_percentile(values) is None


def test_tail_none_with_too_few_samples():
    assert tail_percentile([1.0] * 3 + [2.0] * 9) is None
    assert tail_percentile(list(range(20))) == (50.0, 9, 10)


def test_nearest_rank_percentile():
    assert percentile([3, 1, 2], 50) == 2
    assert percentile([1, 2, 3, 4], 50) == 2
    assert percentile([1, 2, 3, 4], 100) == 4
    assert percentile([7], 0) == 7


# -- geometric mean -------------------------------------------- #
def test_geomean():
    assert geomean([2.0, 8.0]) == pytest.approx(4.0)
    assert geomean([5.0]) == pytest.approx(5.0)
    assert geomean([1.0, 10.0, 100.0]) == pytest.approx(10.0)
    assert math.isnan(geomean([]))
    with pytest.raises(ValueError):
        geomean([1.0, 0.0])


# -- lateness --------------------------------------------------------------- #
def test_lateness_from_due_time():
    due = [0.0, 1.0, 2.0, 3.0]
    sent = [0.0, 1.5, 1.9, 3.25]
    assert lateness(due, sent) == pytest.approx([0.0, 0.5, 0.0, 0.25])
    with pytest.raises(ValueError):
        lateness([0.0], [])


# -- span arithmetic -------------------------------------------------------- #
def _span(name, start, end, parent=None):
    return Span(name, start, end, parent, "r", 0)


def test_covered_merges_overlaps_and_clips():
    assert covered([(0, 2), (1, 3), (5, 6)]) == 4
    assert covered([(0, 2), (1, 3)], lo=1.5, hi=2.5) == 1.0
    assert covered([]) == 0.0


def test_self_time_with_overlapping_children():
    spans = [_span("root", 0, 10),
             _span("a", 1, 4, parent=0),
             _span("b", 3, 6, parent=0),     # overlaps a on [3, 4]
             _span("c", 9, 12, parent=0)]    # runs past the parent's end
    # children cover [1, 6] and [9, 10] inside the root: 6 of 10 seconds
    assert self_times(spans)[0] == pytest.approx(4.0)
    assert self_times(spans)[1:] == pytest.approx([3.0, 3.0, 3.0])
    assert unattributed_share(spans) == pytest.approx(0.4)


def test_self_time_counts_only_direct_children():
    spans = [_span("root", 0, 10),
             _span("mid", 0, 8, parent=0),
             _span("leaf", 1, 5, parent=1)]
    assert self_times(spans) == pytest.approx([2.0, 4.0, 4.0])
    assert unattributed_share(spans) == pytest.approx(0.2)


def test_outermost_skips_reentrant_calls():
    spans = [_span("x", 0, 10),
             _span("y", 1, 9, parent=0),
             _span("x", 2, 3, parent=1),
             _span("x", 11, 12)]
    assert outermost(spans) == [True, True, False, True]


# -- tracer ----------------------------------------------------------------- #
class _Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


class _Layer:
    def work(self, n):
        return n * 2


def test_tracer_wraps_methods_records_parents_and_restores():
    clock = _Clock()
    tracer = Tracer(clock=clock)
    original = _Layer.__dict__["work"]
    tracer.patch_method(_Layer, "work", "layer.work",
                        after=lambda a, k, r: tracer.count("out", r))
    assert _Layer().work(1) == 2           # disabled: nothing recorded
    assert tracer.spans == []
    tracer.enabled = True
    with tracer.span("op", "req-1"):
        assert _Layer().work(3) == 6
    tracer.restore()
    assert _Layer.__dict__["work"] is original
    names = [(s.name, s.parent, s.request) for s in tracer.spans]
    assert names == [("op", None, "req-1"), ("layer.work", 0, "req-1")]
    assert tracer.counts["out"] == 6
    assert tracer.busy()["layer.work"] == pytest.approx(1.0)
    assert tracer.calls()["op"] == 1


def test_tracer_keeps_threads_apart():
    tracer = Tracer()
    tracer.enabled = True

    def worker(tag):
        with tracer.span("outer", tag):
            with tracer.span("inner"):
                pass

    threads = [threading.Thread(target=worker, args=(f"t{i}",))
               for i in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
        assert not t.is_alive()
    for i, span in enumerate(tracer.spans):
        if span.name == "inner":
            parent = tracer.spans[span.parent]
            assert parent.name == "outer"
            assert parent.thread == span.thread
            assert parent.request == span.request
