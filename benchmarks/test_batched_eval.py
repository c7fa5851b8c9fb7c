"""Batched population evaluation: lane-pruned sweep vs reference serial.

The ``evaluate_many`` PR makes one redesigned surface the canonical way
to evaluate a *population* of candidate strategies: a shared
:class:`~repro.simulation.batch.LanePlanner` prices all K lanes off one
source-graph lowering, lanes whose admissible bound already exceeds the
best-so-far are killed **before compilation** ("prebound"), and the
survivors run the unchanged serial pipeline — so every surviving lane
(and the winner) is bit-identical to its serial evaluation.

This benchmark runs the PR's reference workload — a 16-candidate cold
search — over three independently sampled pools (seeds 0, 1, 2) and
compares:

- **reference serial** — a per-candidate ``evaluate`` loop on a fresh
  ``PlanBuilder`` with every simulation routed through the reference-
  loop oracle (``tests/sim_oracle.reference_engine``): the pre-batching
  pipeline on the pure-python event loop, which is also the
  paired-fuzzing baseline (``tests/test_batched_identity.py``);
- **batched** — ``evaluate_many(pool, best=BestSoFar())`` on a fresh
  builder: lane bounds, prebound kills, ascending-bound evaluation
  order, kernel event loop.

Correctness gates (also the CI ``--quick`` smoke step): every surviving
lane's makespan — and the winning (index, makespan) pair — must be
**bit-identical** to the reference serial sweep on every pool; killed
lanes must report admissible bounds (never above their serial
makespan); and the aggregate speedup must not regress by more than 25%
against the committed baseline.  The full run additionally targets the
PR's headline: >= 3x aggregate over the three pools.

Methodology matches ``test_candidate_pruning``: ``time.process_time``,
best-of-N repetitions, GC paused around the timed regions; per-pool
times are summed before the ratio so no single lucky pool carries the
gate.
"""

from __future__ import annotations

import gc
import json
import os
import time

import numpy as np
import pytest

from repro.agent.policy import actions_to_strategy, num_actions
from repro.cluster import cluster_4gpu, cluster_8gpu
from repro.graph.grouping import group_operations
from repro.graph.models import build_model
from repro.plan import BestSoFar, PlanBuilder
from repro.profiling import Profiler

from tests.sim_oracle import reference_engine

#: measured speedup may drop to this fraction of the committed baseline
#: before the benchmark fails (machine-relative, so portable)
REGRESSION_TOLERANCE = 0.75

#: the full-size run's absolute target (the PR's headline number)
FULL_TARGET_SPEEDUP = 3.0

POOL_SEEDS = (0, 1, 2)

RESULT_NAME = "BENCH_batched_eval.json"


def grouped_candidates(graph, cluster, n, *, groups=8, seed=0):
    """``n`` candidates drawn from the search's per-group action space
    (random MP/DP action per operation group — a cold policy's sampling
    distribution)."""
    rng = np.random.default_rng(seed)
    grouping = group_operations(graph, {op: 1.0 for op in graph.op_names},
                                groups)
    return [
        actions_to_strategy(
            graph, cluster, grouping,
            rng.integers(0, num_actions(cluster), grouping.num_groups))
        for _ in range(n)
    ]


@pytest.fixture(scope="module")
def setup(request):
    quick = request.config.getoption("--quick")
    if quick:
        cluster = cluster_4gpu()
        graph = build_model("inception_v3", "tiny")
        reps = 2
    else:
        cluster = cluster_8gpu()
        graph = build_model("inception_v3", "bench")
        reps = 2
    n = 16  # the PR's reference workload: a 16-candidate cold search
    profile = Profiler(seed=0).profile(graph, cluster)
    return quick, graph, cluster, profile, n, reps


def _timed_best(fn, reps):
    """Best-of-``reps`` CPU seconds with the GC paused, plus last value."""
    best = None
    value = None
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(reps):
            start = time.process_time()
            value = fn()
            elapsed = time.process_time() - start
            best = elapsed if best is None or elapsed < best else best
    finally:
        if gc_was_enabled:
            gc.enable()
    return best, value


def _winner(times):
    idx = min(range(len(times)), key=times.__getitem__)
    return idx, times[idx]


def test_batched_eval_speedup(setup, report, results_dir):
    quick, graph, cluster, profile, n, reps = setup

    serial_total = 0.0
    batched_total = 0.0
    stages_total: dict = {}
    per_pool = []
    for seed in POOL_SEEDS:
        pool = grouped_candidates(graph, cluster, n, seed=seed)

        def serial():
            with reference_engine():
                builder = PlanBuilder(graph, cluster, profile)
                return [builder.evaluate(s) for s in pool]

        def batched():
            builder = PlanBuilder(graph, cluster, profile)
            return builder.evaluate_many(pool, best=BestSoFar())

        serial_s, serial_outcomes = _timed_best(serial, reps)
        batched_s, batched_outcomes = _timed_best(batched, reps)

        serial_times = [o.time if o.feasible else float("inf")
                        for o in serial_outcomes]
        stages: dict = {"full": 0}
        for got, want in zip(batched_outcomes, serial_outcomes):
            if got.pruned:
                stages[got.prune_stage] = stages.get(got.prune_stage, 0) + 1
                # admissible: a killed lane provably could not have won
                assert got.bound is not None
                if want.feasible:
                    assert got.bound <= want.time + 1e-9, (
                        f"pool seed {seed}: killed lane's bound "
                        f"{got.bound} exceeds its serial makespan "
                        f"{want.time}")
            else:
                stages["full"] += 1
                # surviving lane: bit-identical to the reference serial
                assert got.time == want.time, (
                    f"pool seed {seed}: surviving lane diverged from "
                    f"reference serial ({got.time} != {want.time})")
                assert got.feasible == want.feasible
        batched_times = [o.time if o.feasible else float("inf")
                         for o in batched_outcomes]
        assert _winner(batched_times) == _winner(serial_times), (
            f"pool seed {seed}: batched sweep changed the winner")

        serial_total += serial_s
        batched_total += batched_s
        for stage, count in stages.items():
            stages_total[stage] = stages_total.get(stage, 0) + count
        per_pool.append({
            "seed": seed,
            "serial_cpu_seconds": round(serial_s, 3),
            "batched_cpu_seconds": round(batched_s, 3),
            "speedup": round(serial_s / batched_s, 2)
            if batched_s > 0 else float("inf"),
            "stages": stages,
        })

    assert stages_total.get("prebound", 0) > 0, \
        "the lane bound never killed a candidate before compilation"

    speedup = serial_total / batched_total if batched_total > 0 \
        else float("inf")

    mode = "quick" if quick else "full"
    committed_path = results_dir / RESULT_NAME
    baseline_speedup = None
    committed = {}
    if committed_path.exists():
        committed = json.loads(committed_path.read_text())
        baseline_speedup = committed.get(mode, {}).get("speedup")
    if baseline_speedup is not None:
        floor = baseline_speedup * REGRESSION_TOLERANCE
        assert speedup >= floor, (
            f"batched-eval speedup regressed: {speedup:.2f}x vs committed "
            f"{baseline_speedup:.2f}x (floor {floor:.2f}x)"
        )
    if not quick:
        assert speedup >= FULL_TARGET_SPEEDUP, (
            f"aggregate batched-vs-serial speedup {speedup:.2f}x below "
            f"the {FULL_TARGET_SPEEDUP}x target"
        )

    numbers = {
        "model": graph.name,
        "cluster": str(cluster),
        "candidates": n,
        "pools": len(POOL_SEEDS),
        "reps": reps,
        "cpu_cores": os.cpu_count(),
        "serial_cpu_seconds": round(serial_total, 3),
        "batched_cpu_seconds": round(batched_total, 3),
        "speedup": round(speedup, 2),
        "lanes_full": stages_total.get("full", 0),
        "lanes_prebound": stages_total.get("prebound", 0),
        "lanes_bound": stages_total.get("bound", 0),
        "lanes_midsim": stages_total.get("midsim", 0),
        "winner_identical": True,
        "per_pool": per_pool,
        "committed_baseline_speedup": baseline_speedup,
    }
    if not quick:
        # refresh the full section; keep the quick record intact
        committed["full"] = {k: v for k, v in numbers.items()
                             if k != "committed_baseline_speedup"}
        committed_path.write_text(json.dumps(committed, indent=2) + "\n")

    body = "\n".join(f"{k:28s}: {v}" for k, v in numbers.items()
                     if k != "per_pool")
    body += "\nper_pool:\n" + "\n".join(
        f"  seed {p['seed']}: {p['serial_cpu_seconds']}s -> "
        f"{p['batched_cpu_seconds']}s ({p['speedup']}x, {p['stages']})"
        for p in per_pool)
    report(f"Batched population evaluation ({mode}) — "
           f"reference serial vs evaluate_many", body)
