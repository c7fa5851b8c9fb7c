"""``repro.plan`` — the cached ExecutionPlan layer.

One immutable artifact, :class:`ExecutionPlan` (DistGraph + schedule
priorities + resident bytes + capacities + a content-addressed
fingerprint), is the single currency between compilation, scheduling,
simulation and deployment:

- :class:`PlanBuilder` produces plans for one (graph, cluster, profile)
  context and memoizes both plans and :class:`EvalOutcome`s in
  fingerprint-keyed LRUs (:class:`PlanCache`), so repeated strategies in
  REINFORCE episodes, MCMC walks and seed re-evaluations are free;
- :meth:`PlanBuilder.evaluate_many` is the canonical population entry
  point: candidates become lanes priced through one shared
  :class:`~repro.simulation.batch.LanePlanner`, hopeless lanes are
  killed before compilation (``prune_stage="prebound"``), and survivors
  run in ascending-bound order against the shared best-so-far.
  Every search scores its candidates here or through
  :meth:`PlanBuilder.evaluate`, in the caller's process.

Cache behaviour is observable through the ``plan_cache_hits_total`` and
``plan_cache_misses_total`` telemetry counters.
"""

from .builder import PlanBuilder
from .cache import PlanCache
from .fingerprint import (
    fingerprint_cluster,
    fingerprint_context,
    fingerprint_strategy,
)
from .plan import EvalOutcome, ExecutionPlan
from .pruning import BestSoFar

__all__ = [
    "BestSoFar",
    "EvalOutcome",
    "ExecutionPlan",
    "PlanBuilder",
    "PlanCache",
    "fingerprint_cluster",
    "fingerprint_context",
    "fingerprint_strategy",
]
