"""Tests for the experiment harness (fast, tiny-scale invocations)."""

import pytest

from repro.cluster import cluster_4gpu
from repro.experiments import (
    ExperimentContext,
    bench_agent_config,
    fig3b_op_speedups,
    format_table,
    paper_values,
)
from repro.experiments.tables import _batch_for, mp_fraction
from repro.graph.models import build_model
from repro.parallel.compiler import GraphCompiler
from repro.plan import PlanBuilder
from repro.plan.fingerprint import fingerprint_strategy


class TestCommon:
    def test_format_table_alignment(self):
        out = format_table(["A", "Bee"], [["1", "2"], ["333", "4"]])
        lines = out.splitlines()
        assert len(lines) == 4
        assert all(len(line) == len(lines[0]) for line in lines)

    def test_measure_roundtrip(self, four_gpu):
        from repro.baselines import dp_strategy
        g = build_model("vgg19", "tiny")
        ctx = ExperimentContext(four_gpu, seed=0)
        m = ctx.measure(g, dp_strategy("CP-AR", g, four_gpu), "CP-AR")
        assert m.time > 0 and not m.oom
        assert m.extras["computation_time"] > 0
        assert "CP-AR" in m.mix

    def test_profile_cached(self, four_gpu):
        g = build_model("vgg19", "tiny")
        ctx = ExperimentContext(four_gpu, seed=0)
        assert ctx.profile(g) is ctx.profile(g)

    def test_run_heterog_records_search_stats(self, four_gpu):
        ctx = ExperimentContext(four_gpu, seed=0)
        g = build_model("transformer", "tiny")
        m = ctx.run_heterog(g, episodes=6,
                            agent_config=_tiny_agent_config())
        assert not m.oom
        assert m.extras["search_seconds"] > 0
        assert m.extras["simulated_time"] > 0

    def test_run_heterog_compiles_winner_once(self, four_gpu, monkeypatch):
        """The winner is deployed from the search's plan cache: one
        compile per distinct candidate, none extra for the deployment."""
        compiles = []
        candidates = set()
        compile_ = GraphCompiler.compile
        evaluate, evaluate_many = PlanBuilder.evaluate, \
            PlanBuilder.evaluate_many

        def spy_compile(self, *args, **kwargs):
            compiles.append(1)
            return compile_(self, *args, **kwargs)

        def spy_evaluate(self, strategy, **kwargs):
            candidates.add(self.fingerprint(strategy))
            return evaluate(self, strategy, **kwargs)

        def spy_evaluate_many(self, strategies, **kwargs):
            candidates.update(self.fingerprint(s) for s in strategies)
            return evaluate_many(self, strategies, **kwargs)

        monkeypatch.setattr(GraphCompiler, "compile", spy_compile)
        monkeypatch.setattr(PlanBuilder, "evaluate", spy_evaluate)
        monkeypatch.setattr(PlanBuilder, "evaluate_many", spy_evaluate_many)
        ctx = ExperimentContext(four_gpu, seed=0)
        m = ctx.run_heterog(build_model("transformer", "tiny"), episodes=4,
                            agent_config=_tiny_agent_config(), iterations=2)
        assert not m.oom
        assert candidates
        assert len(compiles) == len(candidates)

    def test_pinned_results(self, four_gpu):
        """Search, deployment and engine measurement on a tiny graph
        reproduce recorded values bit for bit."""
        from repro.baselines import dp_strategy
        g = build_model("transformer", "tiny")
        ctx = ExperimentContext(four_gpu, seed=0)
        m = ctx.run_heterog(g, episodes=4, agent_config=_tiny_agent_config(),
                            iterations=2)
        assert m.time == 0.0020124632969669405
        assert m.extras["simulated_time"] == 0.002039106047784001
        assert fingerprint_strategy("pin", m.strategy) == (
            "58d41f7f90197299ad86b1140776f529f4229c8804b083e3d5c218070b6bf20f")
        fifo = ctx.measure(g, dp_strategy("CP-AR", g, four_gpu), "CP-AR",
                           use_order_scheduling=False, iterations=2)
        assert fifo.time == 0.004387548784879578

    def test_batch_for_scales(self):
        assert _batch_for("vgg19", 8) == {}
        assert _batch_for("vgg19", 12) == {"batch_size": 288}
        assert _batch_for("transformer", 12) == {"batch_size": 1080}

    def test_mp_fraction(self):
        assert mp_fraction({"MP:gpu0": 0.2, "CP-AR": 0.8}) == pytest.approx(0.2)


def _tiny_agent_config():
    cfg = bench_agent_config(0)
    cfg.max_groups = 8
    cfg.gat_hidden = 16
    cfg.strategy_dim = 16
    return cfg


class TestFig3b:
    def test_ratios_positive_and_bounded(self):
        points = fig3b_op_speedups(seed=1)
        assert len(points) == 5
        for p in points:
            assert all(0.8 < r < 3.0 for r in p.normalized_times)

    def test_deterministic(self):
        a = fig3b_op_speedups(seed=2)
        b = fig3b_op_speedups(seed=2)
        assert [p.mean for p in a] == [p.mean for p in b]


class TestPaperValues:
    def test_table1_rows_complete(self):
        assert len(paper_values.TABLE1) == 8
        for vals in paper_values.TABLE1.values():
            assert len(vals) == 5
            # HeteroG (first) is the fastest in every paper row
            assert vals[0] == min(vals)

    def test_speedup_helper(self):
        assert paper_values.speedup(0.907, 0.462) == pytest.approx(
            0.963, abs=0.001)

    def test_table5_consistent_with_table1(self):
        """Paper cross-check: Table 5's 8-GPU HeteroG minutes divided by
        Table 1 per-iteration times give a consistent iteration count."""
        t1 = paper_values.TABLE1["vgg19"][0]
        t5 = paper_values.TABLE5["vgg19"][8][0]
        iterations = t5 * 60 / t1
        assert iterations == pytest.approx(66640, rel=0.01)


@pytest.fixture(scope="module")
def four_gpu():
    return cluster_4gpu()
