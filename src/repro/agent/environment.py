"""The Strategy Maker's environment is the plan layer.

The Simulator "estimates the per-iteration training time for setting
rewards for GNN training, and also tracks memory usage on each device, to
set bad rewards for strategies leading to memory overflow" (Sec. 3.3).
All timings come from the *profiler's* predictions — the testbed
(TruthCostModel) is never consulted during strategy search.

The compile -> schedule -> simulate chain is
:class:`repro.plan.PlanBuilder`: each :class:`~repro.agent.reinforce.
GraphContext` carries one, bound to its (graph, cluster, profile), and
the trainer scores rollouts with ``builder.evaluate_many``.  Resident
bytes travel inside the :class:`~repro.plan.ExecutionPlan`, and repeated
evaluations of the same strategy are served from the builder's
fingerprint-keyed caches.  This module only re-exports the outcome type
rewards are computed from.
"""

from ..plan import EvalOutcome

__all__ = ["EvalOutcome"]
