"""Reference simulator: the golden oracle for the kernel event loop.

:class:`repro.simulation.Simulator` runs one event loop over the
array-lowered :class:`~repro.simulation.kernel.SimKernel`.  This module
keeps the original string-keyed loop it was derived from, unchanged in
logic, as the test-only oracle that loop must match bit for bit: same
event ordering, tie-breaking counter draws, float accumulation order,
result-table insertion orders and deadlock messages.

- :func:`run_reference` simulates one graph under a cost provider, with
  the keyword surface of :meth:`Simulator.run`;
- :func:`reference_engine` is a context manager that routes every
  :meth:`Simulator.run` call in its block — including the scheduler's
  candidate-order simulations — through the oracle, so whole
  builder-level pipelines can be paired against the kernel loop.
"""

from __future__ import annotations

import contextlib
import heapq
import itertools
import time
from typing import Dict, Iterator, List, Mapping, Optional, Tuple

from repro import telemetry
from repro.errors import SimulationError
from repro.parallel.distgraph import DistGraph, DistOp
from repro.simulation.costs import CostProvider
from repro.simulation.engine import Simulator
from repro.simulation.kernel import exceeds
from repro.simulation.memory import MemoryTracker
from repro.simulation.metrics import SimulationResult, union_length


def run_reference(
    cost: CostProvider,
    graph: DistGraph,
    *,
    priorities: Optional[Mapping[str, int]] = None,
    resident_bytes: Optional[Dict[str, int]] = None,
    capacities: Optional[Dict[str, int]] = None,
    trace: bool = False,
    strict: bool = False,
    prune_above: Optional[float] = None,
) -> SimulationResult:
    """Simulate one iteration of ``graph`` on the reference loop.

    Arguments mean what they mean for :meth:`Simulator.run`; the
    oracle derives everything from ``graph`` itself, so it takes no
    pre-lowered kernel.
    """
    tel = telemetry.active()
    kw = dict(priorities=priorities, resident_bytes=resident_bytes,
              capacities=capacities, trace=trace, strict=strict,
              prune_above=prune_above)
    if tel is None:
        return _run(cost, graph, tel=None, **kw)
    with tel.span("simulate", graph=graph.name, ops=len(graph)):
        return _run(cost, graph, tel=tel, **kw)


@contextlib.contextmanager
def reference_engine() -> Iterator[None]:
    """Route every :meth:`Simulator.run` in the block through the oracle."""

    def run(self, graph, *, kernel=None, _prio_ids=None, **kw):
        # ``kernel`` / ``_prio_ids`` are kernel-loop inputs the oracle
        # re-derives from the graph and the priority mapping
        return run_reference(self.cost, graph, **kw)

    original = Simulator.run
    Simulator.run = run
    try:
        yield
    finally:
        Simulator.run = original


def _run(
    cost: CostProvider,
    graph: DistGraph,
    *,
    priorities: Optional[Mapping[str, int]],
    resident_bytes: Optional[Dict[str, int]],
    capacities: Optional[Dict[str, int]],
    trace: bool,
    strict: bool,
    tel: Optional["telemetry.Telemetry"],
    prune_above: Optional[float] = None,
) -> SimulationResult:
    if strict and priorities is None:
        raise SimulationError("strict mode requires explicit priorities")
    wall_start = time.perf_counter() if tel is not None else 0.0
    prune_limit = float("inf") if prune_above is None else prune_above
    # as in the kernel loop: tail cuts must violate by more than the
    # fp guard margin (``exceeds``); the clock check stays exact
    was_pruned = False

    ops: Dict[str, DistOp] = {name: graph.op(name)
                              for name in graph.op_names}
    resources_of: Dict[str, Tuple[str, ...]] = {
        name: op.resources() for name, op in ops.items()
    }
    pending_deps: Dict[str, int] = {
        name: len(graph.predecessors(name)) for name in ops
    }

    # strict mode: per-resource queues in priority order; an op may only
    # start while it is at the head of every one of its resource queues
    if strict:
        strict_queues: Dict[str, List[str]] = {}
        for name in ops:
            for r in resources_of[name]:
                strict_queues.setdefault(r, []).append(name)
        for r, names in strict_queues.items():
            names.sort(key=lambda n: priorities.get(n, 0))
        head_index: Dict[str, int] = {r: 0 for r in strict_queues}

        def is_head(name: str) -> bool:
            return all(
                strict_queues[r][head_index[r]] == name
                for r in resources_of[name]
            )

        def advance_heads(name: str) -> None:
            for r in resources_of[name]:
                head_index[r] += 1
    else:
        def is_head(name: str) -> bool:  # noqa: ARG001
            return True

        def advance_heads(name: str) -> None:  # noqa: ARG001
            return None

    # tail-based abort mirror of the kernel loop: same recursion, same
    # float accumulation order (successor list order), so pruned
    # partial results stay bit-identical across the two loops
    tails: Optional[Dict[str, float]] = None
    if (prune_above is not None
            and getattr(cost, "deterministic", False)):
        try:
            order = graph.topological_order()
        except Exception:
            order = None  # cyclic: deadlock detection handles it
        if order is not None:
            tails = {}
            duration_of = cost.duration
            for name in reversed(order):
                tail = 0.0
                for s in graph.successors(name):
                    t = duration_of(ops[s]) + tails[s]
                    if t > tail:
                        tail = t
                tails[name] = tail

    memory = MemoryTracker(graph, resident_bytes or {})
    use_fifo = priorities is None
    counter = itertools.count()

    def priority_of(name: str) -> float:
        return next(counter) if use_fifo else priorities.get(name, 0)

    resource_busy: Dict[str, bool] = {}
    # per-resource priority heap of (priority, tiebreak, name) waiters
    waiting: Dict[str, List[Tuple[float, int, str]]] = {}
    now = 0.0
    completions: List[Tuple[float, int, str]] = []
    started: Dict[str, float] = {}
    finished: Dict[str, float] = {}
    device_busy: Dict[str, float] = {}
    link_intervals: Dict[str, List[Tuple[float, float]]] = {}
    comm_intervals: List[Tuple[float, float]] = []
    compute_intervals: List[Tuple[float, float]] = []
    in_wait_queue: Dict[str, bool] = {}
    # telemetry: when each op first became ready / where it last parked
    ready_at: Dict[str, float] = {}
    parked_on: Dict[str, str] = {}

    def try_start(name: str, prio: float) -> None:
        """Start ``name`` if possible; otherwise park it on the first
        busy resource it needs (or the strict-order head block)."""
        if tel is not None and name not in ready_at:
            ready_at[name] = now
        op = ops[name]
        blocked_on: Optional[str] = None
        for r in resources_of[name]:
            if resource_busy.get(r, False):
                blocked_on = r
                break
        if blocked_on is None and not is_head(name):
            # strict mode: wait on the first resource where this op is
            # not at the head of the queue
            for r in resources_of[name]:
                if strict_queues[r][head_index[r]] != name:
                    blocked_on = r
                    break
        if blocked_on is not None:
            heapq.heappush(
                waiting.setdefault(blocked_on, []),
                (prio, next(counter), name),
            )
            in_wait_queue[name] = True
            if tel is not None:
                parked_on[name] = blocked_on
            return

        advance_heads(name)
        for r in resources_of[name]:
            resource_busy[r] = True
        duration = cost.duration(op)
        if duration < 0:
            raise SimulationError(
                f"negative duration for {name}: {duration}"
            )
        memory.on_start(op)
        started[name] = now
        if tel is not None:
            wait = now - ready_at.get(name, now)
            tel.registry.histogram(
                "sim_queue_wait_seconds",
                help="simulated time ops spend ready but blocked",
            ).observe(wait)
            blocked = parked_on.pop(name, None)
            if blocked is not None and wait > 0:
                tel.registry.counter(
                    "sim_resource_wait_seconds_total",
                    labels={"resource": blocked},
                    help="simulated wait attributed to each resource",
                ).inc(wait)
        heapq.heappush(completions,
                       (now + duration, next(counter), name))

    def release_resource(resource: str) -> None:
        """Free a resource and retry its waiters in priority order."""
        resource_busy[resource] = False
        queue = waiting.get(resource)
        if not queue:
            return
        # retry all current waiters; those still blocked re-park on
        # whatever resource now blocks them (possibly this one again)
        current, waiting[resource] = queue, []
        for prio, _, name in sorted(current):
            in_wait_queue[name] = False
            try_start(name, prio)

    # kick off sources in priority order
    initial = sorted(
        (priority_of(name), next(counter), name)
        for name, deps in pending_deps.items() if deps == 0
    )
    for prio, _, name in initial:
        try_start(name, prio)

    executed = 0
    total = len(ops)
    while completions:
        now, _, name = heapq.heappop(completions)
        if now > prune_limit:
            was_pruned = True
            break
        if tails is not None and exceeds(now + tails[name], prune_limit):
            was_pruned = True
            now += tails[name]
            break
        op = ops[name]
        finished[name] = now
        executed += 1
        memory.on_finish(op)
        if tel is not None:
            tel.registry.counter(
                "sim_ops_total", labels={"kind": op.kind.value},
                help="dist-ops completed, by kind",
            ).inc()

        begin = started[name]
        if op.is_compute:
            device_busy[op.device] = device_busy.get(op.device, 0.0) + (
                now - begin
            )
            compute_intervals.append((begin, now))
        else:
            comm_intervals.append((begin, now))
            for r in resources_of[name]:
                if r.startswith("link:"):
                    link_intervals.setdefault(r, []).append((begin, now))

        # new ready successors first (so a freed resource sees them)
        for succ in graph.successors(name):
            pending_deps[succ] -= 1
            if pending_deps[succ] == 0:
                try_start(succ, priority_of(succ))

        for r in resources_of[name]:
            release_resource(r)

    if executed != total and not was_pruned:
        stuck = [n for n, d in pending_deps.items() if d > 0][:5]
        waiting_named = [n for n, w in in_wait_queue.items() if w][:5]
        raise SimulationError(
            f"deadlock: executed {executed}/{total} ops; "
            f"stuck deps on {stuck}; parked {waiting_named}"
        )

    capacities = capacities or {}
    result = SimulationResult(
        makespan=now,
        device_busy=device_busy,
        link_busy={
            r: union_length(iv) for r, iv in link_intervals.items()
        },
        communication_time=union_length(comm_intervals),
        computation_wall=union_length(compute_intervals),
        peak_memory=dict(memory.peak),
        oom_devices=memory.oom_devices(capacities),
        pruned=was_pruned,
    )
    if trace:
        result.schedule = {
            n: (started[n], finished.get(n, 0.0)) for n in started
        }
    if tel is not None:
        Simulator._observe_run(tel, executed, now, wall_start)
    return result
