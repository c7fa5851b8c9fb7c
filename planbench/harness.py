"""The planner benchmark's own arithmetic and its out-of-program tracer.

Nothing in here imports the planner: the statistics are plain Python
(unit-tested in ``test_harness.py``), and :class:`Tracer` wraps the
planner's entry points from outside, at the class for methods and in
every module that looks a function up by name.
"""

from __future__ import annotations

import contextlib
import functools
import math
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import (Callable, Dict, Iterable, List, Optional, Sequence,
                    Tuple)

#: percentiles tried for a tail, highest first; the tail is the highest
#: one with at least ``TAIL_MIN_BEYOND`` samples strictly above it
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10


# --------------------------------------------------------------------- #
# statistics
# --------------------------------------------------------------------- #
def geomean(values: Iterable[float]) -> float:
    """Geometric mean of positive values (``nan`` when there are none)."""
    vals = list(values)
    if not vals:
        return float("nan")
    if any(v <= 0 for v in vals):
        raise ValueError(f"geometric mean needs positive values: {vals}")
    return math.exp(math.fsum(math.log(v) for v in vals) / len(vals))


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least ``p``
    percent of the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(values: Sequence[float],
                    ladder: Sequence[float] = TAIL_LADDER,
                    min_beyond: int = TAIL_MIN_BEYOND
                    ) -> Optional[Tuple[float, float, int]]:
    """``(p, value, beyond)`` for the highest percentile in ``ladder``
    with at least ``min_beyond`` samples strictly above its value, or
    ``None`` when even the lowest rung has too few."""
    for p in sorted(ladder, reverse=True):
        value = percentile(values, p)
        beyond = sum(1 for v in values if v > value)
        if beyond >= min_beyond:
            return p, value, beyond
    return None


def lateness(due: Sequence[float], sent: Sequence[float]) -> List[float]:
    """How late each send was against its due time (never negative: an
    early wake-up is on time)."""
    if len(due) != len(sent):
        raise ValueError("due and sent differ in length")
    return [max(0.0, s - d) for d, s in zip(due, sent)]


def covered(intervals: Iterable[Tuple[float, float]],
            lo: float = -math.inf, hi: float = math.inf) -> float:
    """Length of the union of ``intervals``, clipped to ``[lo, hi]``."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        elif b > cur_b:
            cur_b = b
    if cur_b is not None:
        total += cur_b - cur_a
    return total


# --------------------------------------------------------------------- #
# spans
# --------------------------------------------------------------------- #
@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]      # index into the tracer's span list
    request: str
    thread: int

    @property
    def duration(self) -> float:
        return self.end - self.start


def children_of(spans: Sequence[Span]) -> Dict[int, List[int]]:
    kids: Dict[int, List[int]] = defaultdict(list)
    for i, span in enumerate(spans):
        if span.parent is not None:
            kids[span.parent].append(i)
    return kids


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the part of it its children cover
    (children may overlap each other; their union is subtracted once)."""
    kids = children_of(spans)
    out = []
    for i, span in enumerate(spans):
        inner = covered(((spans[k].start, spans[k].end) for k in kids[i]),
                        span.start, span.end)
        out.append(span.duration - inner)
    return out


def outermost(spans: Sequence[Span]) -> List[bool]:
    """True for spans with no ancestor of the same name, so recursive or
    re-entrant calls are counted once in a layer's busy time."""
    flags = []
    for span in spans:
        p = span.parent
        while p is not None and spans[p].name != span.name:
            p = spans[p].parent
        flags.append(p is None)
    return flags


def unattributed_share(spans: Sequence[Span]) -> float:
    """Share of the root spans' time that no child span covers."""
    selfs = self_times(spans)
    total = sum(s.duration for s in spans if s.parent is None)
    if total <= 0:
        return 0.0
    loose = sum(t for s, t in zip(spans, selfs) if s.parent is None)
    return loose / total


# --------------------------------------------------------------------- #
# tracer
# --------------------------------------------------------------------- #
class Tracer:
    """Records spans around wrapped entry points while ``enabled``.

    Spans go to an in-memory list (written out by the caller at exit);
    the parent of a span is the innermost open span on the same thread,
    and a span inherits its parent's request id unless the wrapper
    names one.  ``restore`` undoes every patch.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.enabled = False
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: List[Tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------ #
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, request: Optional[str] = None) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if request is None:
            request = self.spans[parent].request if parent is not None \
                else ""
        span = Span(name, self.clock(), math.nan, parent, request,
                    threading.get_ident())
        with self._lock:
            self.spans.append(span)
            index = len(self.spans) - 1
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index].end = self.clock()
        self._stack().pop()

    def open_names(self) -> List[str]:
        """Names of the spans open on this thread, outermost first."""
        return [self.spans[i].name for i in self._stack()]

    def count(self, key: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counts[key] += amount

    @contextlib.contextmanager
    def span(self, name: str, request: Optional[str] = None):
        """A span around the ``with`` block (nothing while disabled)."""
        if not self.enabled:
            yield
            return
        index = self.open(name, request)
        try:
            yield
        finally:
            self.close(index)

    # -- wrapping ------------------------------------------------------- #
    def wrap(self, fn: Callable, name: str, *,
             after: Optional[Callable] = None,
             request: Optional[Callable] = None,
             record: bool = True) -> Callable:
        """``fn`` with a span around each call.  ``after(args, kwargs,
        result)`` runs inside the span; ``request(args, kwargs)`` names
        the request id of the span; ``record=False`` runs only ``after``
        (a counter without a span)."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            if not record:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args, kwargs, result)
                return result
            rid = request(args, kwargs) if request is not None else None
            index = tracer.open(name, rid)
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args, kwargs, result)
                return result
            finally:
                tracer.close(index)
        return traced

    def patch_method(self, cls: type, attr: str, name: str,
                     **options) -> None:
        """Wrap the plain method ``cls.attr`` at the class."""
        original = cls.__dict__[attr]
        setattr(cls, attr, self.wrap(original, name, **options))
        self._patches.append((cls, attr, original))

    def patch_function(self, module: object, attr: str, name: str,
                       package: str = "repro", **options) -> None:
        """Wrap ``module.attr`` in ``module`` and in every loaded module of
        ``package`` that bound the same function by name."""
        original = getattr(module, attr)
        traced = self.wrap(original, name, **options)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == package
                                   or mod_name.startswith(package + ".")):
                continue
            if mod.__dict__.get(attr) is original:
                setattr(mod, attr, traced)
                self._patches.append((mod, attr, original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- reading -------------------------------------------------------- #
    def busy(self) -> Dict[str, float]:
        """Seconds inside each span name, outermost calls only."""
        out: Dict[str, float] = defaultdict(float)
        for span, top in zip(self.spans, outermost(self.spans)):
            if top:
                out[span.name] += span.duration
        return out

    def calls(self) -> Dict[str, int]:
        out: Dict[str, int] = defaultdict(int)
        for span in self.spans:
            out[span.name] += 1
        return out

    def self_busy(self) -> Dict[str, float]:
        out: Dict[str, float] = defaultdict(float)
        for span, t in zip(self.spans, self_times(self.spans)):
            out[span.name] += t
        return out
