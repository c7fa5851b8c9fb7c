"""Paired fuzzing of the batched population surface.

``PlanBuilder.evaluate_many`` is the canonical population entry point;
its contract, hammered here across cost regimes:

- every *surviving* lane's outcome is bit-identical to a serial
  ``evaluate`` of the same strategy (work-conserving and FIFO
  scheduling, and against a serial sweep run on the reference-loop
  oracle, ``tests/sim_oracle.py``);
- the batched winner is the serial winner, byte-equal makespan;
- lanes killed by the lane bound ("prebound"), the static kernel bound
  ("bound") or a mid-simulation abort ("midsim") report *admissible*
  partial makespans — ``outcome.bound`` never exceeds the true serial
  makespan, so no potential winner is ever pruned;
- the lane bound stays admissible even under the strict
  (non-work-conserving) engine mode;
- stochastic (jittered) cost providers disable lane pricing outright
  and evaluate_many degrades to the plain serial sweep, bit-identically.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.agent.policy import actions_to_strategy, num_actions
from repro.cluster import cluster_4gpu
from repro.graph import GraphBuilder, build_training_graph
from repro.graph.grouping import group_operations
from repro.plan import BestSoFar, PlanBuilder
from repro.profiling import exact_profile
from repro.scheduling import ListScheduler
from repro.simulation import LanePlanner, Simulator
from repro.simulation.costs import TruthCostModel

from tests.sim_oracle import reference_engine

CLUSTER = cluster_4gpu()


def random_graph(layers: int, width: int, batch: int, branches: bool):
    b = GraphBuilder(f"lanes_{layers}_{width}_{batch}_{branches}", batch)
    x = b.input((8,))
    for i in range(layers):
        x = b.dense(x, width, layer=f"fc{i}")
        if branches and i % 2 == 0:
            left = b.activation(x, layer=f"l{i}")
            right = b.activation(x, kind="Gelu", layer=f"r{i}")
            x = b.add_n([left, right], layer=f"merge{i}")
        else:
            x = b.activation(x, layer=f"fc{i}")
    b.softmax_loss(x, 10)
    return build_training_graph(b)


def candidate_strategies(graph, rng: np.random.Generator, n: int,
                         groups: int = 6):
    grouping = group_operations(graph, {op: 1.0 for op in graph.op_names},
                                groups)
    return [
        actions_to_strategy(
            graph, CLUSTER, grouping,
            rng.integers(0, num_actions(CLUSTER), grouping.num_groups))
        for _ in range(n)
    ]


def serial_truth(graph, profile, pool, **builder_kwargs):
    """Unpruned serial ground truth on a fresh builder."""
    builder = PlanBuilder(graph, CLUSTER, profile, **builder_kwargs)
    return [builder.evaluate(s, prune=False) for s in pool]


def assert_paired(outcomes, truth):
    """The paired-fuzz contract for one (batched, serial) pool sweep."""
    assert len(outcomes) == len(truth)
    for got, want in zip(outcomes, truth):
        if got.pruned:
            assert got.prune_stage in ("prebound", "bound", "midsim")
            assert not got.feasible
            assert got.time == float("inf")
            assert got.bound is not None
            # admissible partial makespan: never above the true serial
            # makespan, so the lane provably could not have won
            if want.feasible:
                assert got.bound <= want.time + 1e-9
        else:
            # surviving lane: bit-identical to its serial evaluation
            assert got.time == want.time
            assert got.feasible == want.feasible
            assert got.oom == want.oom
    # winner identity (byte-equal), when any lane is feasible
    times = [o.time if o.feasible else float("inf") for o in truth]
    idx = min(range(len(times)), key=times.__getitem__)
    if math.isfinite(times[idx]):
        got_times = [o.time if o.feasible else float("inf")
                     for o in outcomes]
        jdx = min(range(len(got_times)), key=got_times.__getitem__)
        assert (jdx, got_times[jdx]) == (idx, times[idx])
        assert not outcomes[jdx].pruned


@st.composite
def graph_and_pool(draw):
    layers = draw(st.integers(1, 3))
    width = draw(st.sampled_from([8, 16]))
    batch = draw(st.sampled_from([4, 8]))
    branches = draw(st.booleans())
    seed = draw(st.integers(0, 1000))
    graph = random_graph(layers, width, batch, branches)
    rng = np.random.default_rng(seed)
    return graph, candidate_strategies(graph, rng, 5)


# --------------------------------------------------------------------- #
class TestPairedIdentity:
    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(graph_and_pool())
    def test_work_conserving(self, payload):
        graph, pool = payload
        profile = exact_profile(graph, CLUSTER)
        truth = serial_truth(graph, profile, pool)
        builder = PlanBuilder(graph, CLUSTER, profile)
        outcomes = builder.evaluate_many(pool, best=BestSoFar())
        assert_paired(outcomes, truth)

    @settings(max_examples=8, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(graph_and_pool())
    def test_fifo_scheduling(self, payload):
        graph, pool = payload
        profile = exact_profile(graph, CLUSTER)
        truth = serial_truth(graph, profile, pool,
                             use_order_scheduling=False)
        builder = PlanBuilder(graph, CLUSTER, profile,
                              use_order_scheduling=False)
        outcomes = builder.evaluate_many(pool, best=BestSoFar())
        assert_paired(outcomes, truth)

    @settings(max_examples=6, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(graph_and_pool())
    def test_reference_engine_pairing(self, payload):
        """Batched on the kernel loop vs serial on the reference-loop
        oracle: the acceptance pairing — surviving lanes byte-equal."""
        graph, pool = payload
        profile = exact_profile(graph, CLUSTER)
        with reference_engine():
            truth = serial_truth(graph, profile, pool)
        builder = PlanBuilder(graph, CLUSTER, profile)
        outcomes = builder.evaluate_many(pool, best=BestSoFar())
        assert_paired(outcomes, truth)

    def test_unpruned_evaluate_many_is_the_serial_sweep(self):
        graph = random_graph(2, 16, 8, True)
        profile = exact_profile(graph, CLUSTER)
        pool = candidate_strategies(graph, np.random.default_rng(2), 5)
        truth = serial_truth(graph, profile, pool)
        builder = PlanBuilder(graph, CLUSTER, profile)
        outcomes = builder.evaluate_many(pool, prune=False)
        for got, want in zip(outcomes, truth):
            assert not got.pruned
            assert got.time == want.time
            assert got.feasible == want.feasible

    def test_duplicate_strategies_share_one_outcome(self):
        graph = random_graph(2, 8, 4, False)
        profile = exact_profile(graph, CLUSTER)
        pool = candidate_strategies(graph, np.random.default_rng(4), 2)
        builder = PlanBuilder(graph, CLUSTER, profile)
        outcomes = builder.evaluate_many(
            [pool[0], pool[1], pool[0]], best=BestSoFar())
        assert outcomes[2] is outcomes[0]
        before = builder.evals_total
        builder.evaluate_many([pool[0], pool[0], pool[0]])
        # duplicates beyond the first lane never re-enter evaluate()
        assert builder.evals_total == before + 1


# --------------------------------------------------------------------- #
class TestPruneAboveLanes:
    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(graph_and_pool())
    def test_killed_lanes_report_admissible_partials(self, payload):
        """A threshold aimed at the winner kills the losing lanes, and
        every killed lane's recorded bound stays below its true serial
        makespan — the admissibility half of the contract."""
        graph, pool = payload
        profile = exact_profile(graph, CLUSTER)
        truth = serial_truth(graph, profile, pool)
        times = [o.time for o in truth if o.feasible]
        if not times:
            return  # nothing to prune against
        limit = min(times) * 1.0000001  # only the winner survives it
        builder = PlanBuilder(graph, CLUSTER, profile)
        outcomes = builder.evaluate_many(pool, prune_above=limit)
        assert_paired(outcomes, truth)
        for got, want in zip(outcomes, truth):
            if want.feasible and want.time > limit:
                assert got.pruned

    def test_prebound_kill_avoids_compilation(self):
        """Lanes killed by the lane bound never reach the compiler:
        their outcome reports dist_ops == 0."""
        graph = random_graph(2, 16, 8, False)
        profile = exact_profile(graph, CLUSTER)
        pool = candidate_strategies(graph, np.random.default_rng(6), 6)
        builder = PlanBuilder(graph, CLUSTER, profile)
        outcomes = builder.evaluate_many(pool, prune_above=1e-12)
        for outcome in outcomes:
            if outcome.prune_stage == "prebound":
                assert outcome.dist_ops == 0
                assert outcome.bound > 1e-12

    def test_prebound_outcome_not_served_under_looser_threshold(self):
        """A prebound-killed lane must be re-evaluated exactly once the
        threshold loosens above its recorded bound."""
        graph = random_graph(2, 16, 8, False)
        profile = exact_profile(graph, CLUSTER)
        pool = candidate_strategies(graph, np.random.default_rng(8), 4)
        truth = serial_truth(graph, profile, pool)
        builder = PlanBuilder(graph, CLUSTER, profile)
        first = builder.evaluate_many(pool, prune_above=1e-12)
        killed = [i for i, o in enumerate(first)
                  if o.prune_stage == "prebound" and truth[i].feasible]
        if not killed:
            pytest.skip("no prebound-killed feasible lane on this pool")
        second = builder.evaluate_many(pool)
        for i in killed:
            assert not second[i].pruned
            assert second[i].time == truth[i].time


# --------------------------------------------------------------------- #
class TestStrictModeAdmissibility:
    def test_lane_bound_below_strict_makespan(self):
        """The lane bound is a no-contention earliest-finish DP; under
        the strict (non-work-conserving) engine mode start times only
        move later, so the bound must stay admissible there too."""
        graph = random_graph(2, 16, 8, True)
        profile = exact_profile(graph, CLUSTER)
        builder = PlanBuilder(graph, CLUSTER, profile)
        planner = LanePlanner(graph, CLUSTER, builder.cost)
        assert planner.usable
        pool = candidate_strategies(graph, np.random.default_rng(3), 6)
        bounds, finish = planner.bounds(pool)
        assert finish.shape == (len(pool), planner.n_ops)
        sim = Simulator(builder.cost)
        checked = 0
        for strategy, bound in zip(pool, bounds):
            if not builder.evaluate(strategy, prune=False).feasible:
                continue
            plan = builder.build(strategy)
            prios = ListScheduler().schedule(plan.dist,
                                             builder.cost).priorities
            strict = sim.run(plan.dist, priorities=prios, strict=True)
            assert bound <= strict.makespan + 1e-9
            checked += 1
        assert checked > 0


# --------------------------------------------------------------------- #
class TestJitteredCosts:
    def test_stochastic_cost_disables_lane_pricing(self):
        graph = random_graph(2, 16, 8, False)
        jittered = TruthCostModel(CLUSTER, jitter_sigma=0.05, seed=11)
        assert not jittered.deterministic
        planner = LanePlanner(graph, CLUSTER, jittered)
        assert not planner.usable
        pool = candidate_strategies(graph, np.random.default_rng(5), 3)
        bounds, _ = planner.bounds(pool)
        assert np.all(np.isneginf(bounds))

    def test_evaluate_many_degrades_to_serial_sweep(self):
        """With an unusable planner installed, evaluate_many must fall
        through to the plain serial best-so-far sweep, bit-identically
        (no lane is ever prebound-killed on a -inf bound)."""
        graph = random_graph(2, 16, 8, True)
        profile = exact_profile(graph, CLUSTER)
        pool = candidate_strategies(graph, np.random.default_rng(9), 5)
        ref = PlanBuilder(graph, CLUSTER, profile)
        shared = BestSoFar()
        want = [ref.evaluate(s, best=shared) for s in pool]
        builder = PlanBuilder(graph, CLUSTER, profile)
        builder._lane_planner = LanePlanner(
            graph, CLUSTER,
            TruthCostModel(CLUSTER, jitter_sigma=0.05, seed=11))
        assert not builder._lane_planner.usable
        outcomes = builder.evaluate_many(pool, best=BestSoFar())
        for got, exp in zip(outcomes, want):
            assert got.pruned == exp.pruned
            assert got.time == exp.time
            assert got.feasible == exp.feasible
