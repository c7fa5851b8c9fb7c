"""Which planner entry points are timed, and the per-layer metrics.

Every span is named ``<module>.<entry>`` after the ``src/repro``
package it times.  :func:`instrument` installs the wrappers (it changes
no program file: methods are wrapped at their class, functions in every
module that imported them by name); :func:`per_layer` turns a traced
pass into the ``per_layer`` metrics listed in ``BENCHMARK.json``.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from harness import Tracer, percentile, unattributed_share

#: (metric, unit) in output order; every traced run reports all of
#: them, with 0 for a layer the workload does not reach
PER_LAYER = [
    ("profiling.profile_s", "s"),
    ("profiling.profile_calls", "count"),
    ("graph.build_s", "s"),
    ("graph.group_s", "s"),
    ("agent.sample_s", "s"),
    ("agent.sample_calls", "count"),
    ("agent.update_s", "s"),
    ("parallel.compile_s", "s"),
    ("parallel.compile_calls", "count"),
    ("parallel.dist_ops", "count"),
    ("simulation.run_s", "s"),
    ("simulation.run_calls", "count"),
    ("simulation.lower_s", "s"),
    ("simulation.bound_s", "s"),
    ("simulation.lanes_s", "s"),
    ("scheduling.schedule_self_s", "s"),
    ("scheduling.rank_s", "s"),
    ("plan.evaluate_calls", "count"),
    ("plan.outcome_hit_ratio", "ratio"),
    ("plan.plan_hit_ratio", "ratio"),
    ("plan.pruned_prebound", "count"),
    ("plan.pruned_bound", "count"),
    ("plan.pruned_midsim", "count"),
    ("plan.exact_ratio", "ratio"),
    ("runtime.deploy_s", "s"),
    ("runtime.measure_s", "s"),
    ("runtime.measure_calls", "count"),
    ("service.submit_s", "s"),
    ("service.queue_wait_p50_ms", "ms"),
    ("service.executed", "count"),
    ("service.coalesced", "count"),
    ("service.result_hits", "count"),
    ("service.rejected", "count"),
    ("service.contexts_created", "count"),
    ("harness.unattributed_frac", "ratio"),
    ("harness.trace_overhead_frac", "ratio"),
    ("harness.gen_late_ms", "ms"),
]

_EVALUATE = ("plan.evaluate", "plan.evaluate_many")


def _count_outcomes(tracer: Tracer):
    """Candidate accounting at the outermost plan-layer call only."""
    def after(args, kwargs, result):  # noqa: ARG001
        if sum(n in _EVALUATE for n in tracer.open_names()) > 1:
            return  # nested inside another evaluate: already counted
        outcomes = result if isinstance(result, list) else [result]
        for outcome in outcomes:
            tracer.count("plan.attempted")
            if outcome.pruned:
                tracer.count(f"plan.pruned_{outcome.prune_stage}")
            else:
                tracer.count("plan.exact")
    return after


def _count_cache(tracer: Tracer):
    def after(args, kwargs, result):  # noqa: ARG001
        cache = args[0]
        outcome = "miss" if result is None else "hit"
        tracer.count(f"cache.{cache.kind}.{outcome}")
    return after


def instrument(tracer: Tracer) -> None:
    """Wrap the public entry point of every planner layer."""
    from repro.agent.policy import PolicyNetwork
    from repro.graph import grouping
    from repro.graph.models import registry
    from repro.nn.optim import Adam
    from repro.nn.tensor import Tensor
    from repro.parallel.compiler import GraphCompiler
    from repro.plan.builder import PlanBuilder
    from repro.plan.cache import PlanCache
    from repro.profiling.profiler import Profiler
    from repro.runtime import deployment
    from repro.runtime.execution_engine import ExecutionEngine
    from repro.scheduling import ranking
    from repro.scheduling.list_scheduler import FifoScheduler, ListScheduler
    from repro.service.context import PlanContext
    from repro.service.service import PlanningService
    from repro.simulation import kernel
    from repro.simulation.batch import LanePlanner
    from repro.simulation.engine import Simulator

    t = tracer
    t.patch_method(Profiler, "profile", "profiling.profile")
    t.patch_function(registry, "build_model", "graph.build")
    t.patch_function(grouping, "group_operations", "graph.group")
    t.patch_method(PolicyNetwork, "sample", "agent.sample")
    t.patch_method(Tensor, "backward", "agent.update")
    t.patch_method(Adam, "step", "agent.update")
    t.patch_method(
        GraphCompiler, "compile", "parallel.compile",
        after=lambda a, k, dist: t.count("parallel.dist_ops", len(dist)))
    t.patch_method(Simulator, "run", "simulation.run")
    t.patch_function(kernel, "lower", "simulation.lower")
    t.patch_function(kernel, "kernel_lower_bound", "simulation.bound")
    t.patch_method(LanePlanner, "__init__", "simulation.lanes")
    t.patch_method(LanePlanner, "bounds", "simulation.lanes")
    t.patch_method(ListScheduler, "schedule", "scheduling.schedule")
    t.patch_method(FifoScheduler, "schedule", "scheduling.schedule")
    t.patch_function(ranking, "kernel_ranks", "scheduling.rank")
    t.patch_method(PlanBuilder, "evaluate", "plan.evaluate",
                   after=_count_outcomes(t))
    t.patch_method(PlanBuilder, "evaluate_many", "plan.evaluate_many",
                   after=_count_outcomes(t))
    t.patch_method(PlanCache, "get", "plan.cache", record=False,
                   after=_count_cache(t))
    t.patch_function(deployment, "build_deployment", "runtime.deploy")
    t.patch_method(ExecutionEngine, "measure", "runtime.measure")
    t.patch_method(PlanningService, "submit", "service.submit",
                   request=lambda a, k: a[1].request_id)
    t.patch_method(PlanningService, "context_for", "service.context")
    t.patch_method(PlanContext, "handle", "service.handle")
    t.patch_method(PlanContext, "__init__", "service.context_new",
                   record=False,
                   after=lambda a, k, r: t.count("service.contexts_created"))
    # the backend's per-ticket dispatch is the worker thread's root span
    if "_run_ticket" in PlanningService.__dict__:
        t.patch_method(PlanningService, "_run_ticket", "op.dispatch",
                       request=lambda a, k: a[1].request.request_id)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(tracer: Tracer, *, overhead: float,
              service: Optional[Dict[str, float]] = None,
              queue_waits: Sequence[float] = (),
              gen_late: Sequence[float] = ()) -> Dict[str, float]:
    """The ``per_layer`` metric values of one traced pass."""
    busy = tracer.busy()
    calls = tracer.calls()
    selfs = tracer.self_busy()
    c = tracer.counts
    service = service or {}
    values = {
        "profiling.profile_s": busy["profiling.profile"],
        "profiling.profile_calls": calls["profiling.profile"],
        "graph.build_s": busy["graph.build"],
        "graph.group_s": busy["graph.group"],
        "agent.sample_s": busy["agent.sample"],
        "agent.sample_calls": calls["agent.sample"],
        "agent.update_s": busy["agent.update"],
        "parallel.compile_s": busy["parallel.compile"],
        "parallel.compile_calls": calls["parallel.compile"],
        "parallel.dist_ops": c["parallel.dist_ops"],
        "simulation.run_s": busy["simulation.run"],
        "simulation.run_calls": calls["simulation.run"],
        "simulation.lower_s": busy["simulation.lower"],
        "simulation.bound_s": busy["simulation.bound"],
        "simulation.lanes_s": busy["simulation.lanes"],
        "scheduling.schedule_self_s": selfs["scheduling.schedule"],
        "scheduling.rank_s": busy["scheduling.rank"],
        "plan.evaluate_calls": c["plan.attempted"],
        "plan.outcome_hit_ratio": _ratio(
            c["cache.outcome.hit"],
            c["cache.outcome.hit"] + c["cache.outcome.miss"]),
        "plan.plan_hit_ratio": _ratio(
            c["cache.plan.hit"], c["cache.plan.hit"] + c["cache.plan.miss"]),
        "plan.pruned_prebound": c["plan.pruned_prebound"],
        "plan.pruned_bound": c["plan.pruned_bound"],
        "plan.pruned_midsim": c["plan.pruned_midsim"],
        "plan.exact_ratio": _ratio(c["plan.exact"], c["plan.attempted"]),
        "runtime.deploy_s": busy["runtime.deploy"],
        "runtime.measure_s": busy["runtime.measure"],
        "runtime.measure_calls": calls["runtime.measure"],
        "service.submit_s": busy["service.submit"],
        "service.queue_wait_p50_ms": (
            percentile(queue_waits, 50) * 1e3 if queue_waits else 0.0),
        "service.executed": service.get("executed", 0),
        "service.coalesced": service.get("coalesced", 0),
        "service.result_hits": service.get("result_hits", 0),
        "service.rejected": service.get("rejected", 0),
        "service.contexts_created": c["service.contexts_created"],
        "harness.unattributed_frac": unattributed_share(tracer.spans),
        "harness.trace_overhead_frac": overhead,
        "harness.gen_late_ms": max(gen_late, default=0.0) * 1e3,
    }
    return {name: float(values[name]) for name, _ in PER_LAYER}
