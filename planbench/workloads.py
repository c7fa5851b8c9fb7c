"""The three benchmark workloads.

Each workload is built from ``(seed, seconds, out_dir)`` alone (its
set-up: input generation, plus service start for ``service-mix``) and
offers

- ``measure()``: the untraced run, returning a :class:`Report` with the
  end-to-end metrics;
- ``cycle(tracer)``: one fixed pass of the workload's operations, run
  untraced, traced and untraced again by a traced run, returning the
  work time of the pass and the extras :func:`layers.per_layer` needs.

Operations are checked as they complete; a failed check, an error, a
rejection or a timeout each count one failure.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import math
import os
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import cli
from repro.agent.reinforce import ReinforceTrainer
from repro.baselines import post
from repro.cluster import cluster_4gpu, cluster_8gpu, cluster_12gpu
from repro.config import HeteroGConfig
from repro.experiments.common import ExperimentContext, bench_agent_config
from repro.graph.models import build_model
from repro.parallel.serialize import load_strategy
from repro.plan import PlanBuilder
from repro.plan.fingerprint import fingerprint_strategy
from repro.service import PlanningService, PlanRequest
from repro.telemetry.flight import FlightRecorder

from harness import Tracer, geomean, lateness, percentile, tail_percentile

FAMILIES = ["vgg19", "resnet200", "inception_v3", "mobilenet_v2", "nasnet",
            "transformer", "bert_large", "xlnet_large"]
#: Fig. 9's four families and their batch sizes on the 12-GPU testbed
FIG9_BATCH = {"resnet200": 288, "inception_v3": 288, "transformer": 1080,
              "bert_large": 72}
#: REINFORCE first plays 15 forced seed candidates per family, so two
#: episodes sample nothing from the policy; vgg19 (the cheapest family)
#: runs past its seed queue, so 5 of its episodes are policy samples and
#: their rewards are checked against golden.json
COLD_PLAN_EPISODES = {f: 2 for f in FAMILIES}
COLD_PLAN_EPISODES["vgg19"] = 20
GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "golden.json")


@dataclass
class Report:
    """What one untraced run measured."""
    attempted: int = 0
    failed: int = 0
    metrics: Dict[str, float] = field(default_factory=dict)
    info: Dict[str, object] = field(default_factory=dict)
    errors: List[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)


def strategy_digest(strategy) -> str:
    """Content digest of a strategy's per-op decisions."""
    return fingerprint_strategy("planbench", strategy)


def load_golden() -> Dict[str, Dict[str, object]]:
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


class _Capture:
    """Keeps what each wrapped call returned (and its ``self``) so the
    harness can check it; installed for the whole run, traced or not."""

    def __init__(self, cls: type, attr: str):
        self.cls, self.attr = cls, attr
        self.original = cls.__dict__[attr]
        self.calls: List[Tuple[object, object]] = []
        capture = self

        def hook(obj, *args, **kwargs):
            result = capture.original(obj, *args, **kwargs)
            capture.calls.append((obj, result))
            return result
        setattr(cls, attr, hook)

    def take(self) -> List[Tuple[object, object]]:
        """The calls since the last take, oldest first."""
        calls, self.calls = self.calls, []
        return calls

    def close(self) -> None:
        setattr(self.cls, self.attr, self.original)


def _closed_loop(kinds: List[str], run_op, seconds: float
                 ) -> Dict[str, List[float]]:
    """Run ``run_op(kind, cycle)`` over ``kinds`` cycle after cycle for
    about ``seconds``: every kind runs at least once, and an op is skipped
    when its kind's median so far would overrun the window.  Garbage left
    by one op is collected before the next starts, outside its timing."""
    times: Dict[str, List[float]] = {k: [] for k in kinds}
    start = time.perf_counter()
    cycle = 0
    while True:
        ran = False
        for kind in kinds:
            elapsed = time.perf_counter() - start
            if times[kind] and \
                    elapsed + statistics.median(times[kind]) > seconds:
                continue
            gc.collect()
            times[kind].append(run_op(kind, cycle))
            ran = True
        cycle += 1
        if not ran:
            return times


# --------------------------------------------------------------------- #
# cold-plan
# --------------------------------------------------------------------- #
class ColdPlan:
    """A fresh ``repro plan`` per family, through the CLI entry point."""

    name = "cold-plan"

    def __init__(self, seed: int, seconds: float, out_dir: str):
        self.seed = seed
        self.seconds = seconds
        self.out_dir = out_dir
        self.cluster = cluster_8gpu()
        self.golden = load_golden()["cold-plan"] if seed == 0 else {}
        self.capture = _Capture(ExperimentContext, "run_heterog")
        self.episodes = _Capture(ReinforceTrainer, "train_episode")
        self.quality: Dict[str, List[float]] = {f: [] for f in FAMILIES}
        self.report = Report()
        self.tracer: Optional[Tracer] = None

    def plan_seed(self, cycle: int) -> int:
        return self.seed * 1000 + cycle

    def run_op(self, family: str, cycle: int) -> float:
        """One checked cold plan; returns its wall seconds."""
        plan_seed = self.plan_seed(cycle)
        path = os.path.join(self.out_dir, f"plan-{family}-{plan_seed}.json")
        argv = ["plan", family, "--episodes",
                str(COLD_PLAN_EPISODES[family]), "--workers", "1",
                "--seed", str(plan_seed), "--save", path]
        sink = io.StringIO()
        start = time.perf_counter()
        tracer = self.tracer
        with contextlib.redirect_stdout(sink), \
                contextlib.redirect_stderr(sink), \
                _root(tracer, "op.plan", f"{family}-{plan_seed}"):
            try:
                code = cli.main(argv)
            except Exception as exc:  # noqa: BLE001 - counted, not fatal
                code = repr(exc)
        wall = time.perf_counter() - start
        self.report.attempted += 1
        rewards = [reward for _, episode in self.episodes.take()
                   for reward in episode.values()]
        _checked(self.report, f"{family} seed {plan_seed}", self._check,
                 family, plan_seed, path, code, sink, self.capture.take(),
                 rewards)
        return wall

    def _check(self, family: str, plan_seed: int, path: str, code,
               sink: io.StringIO, captured, rewards: List[float]
               ) -> Optional[str]:
        if code != 0 or len(captured) != 1:
            return f"exit {code}: {sink.getvalue()[-200:]}"
        measured = captured[0][1]
        if measured.oom or not math.isfinite(measured.time) \
                or measured.time <= 0 \
                or not math.isfinite(measured.extras["simulated_time"]):
            return f"infeasible plan ({measured.time})"
        digest = strategy_digest(measured.strategy)
        with _paused(self.tracer):
            reloaded = load_strategy(path, build_model(family, "bench"),
                                     self.cluster)
        if strategy_digest(reloaded) != digest:
            return "saved strategy does not reload"
        want = self.golden.get(f"{family}/{plan_seed}")
        got = {"strategy": digest, "iter_s": measured.time,
               "sim_s": measured.extras["simulated_time"],
               "rewards": rewards}
        if want is not None and want != got:
            return f"differs from the recorded plan {want} != {got}"
        self.quality[family].append(measured.time)
        self.report.info.setdefault("plans", {})[f"{family}/{plan_seed}"] = got
        return None

    def measure(self) -> Report:
        times = _closed_loop(FAMILIES, self.run_op, self.seconds)
        medians = {f: statistics.median(v) for f, v in times.items()}
        quality = {f: statistics.median(v) for f, v in self.quality.items()
                   if v}
        r = self.report
        if len(quality) == len(FAMILIES):
            plan_s = geomean(medians.values())
            iter_ms = geomean(quality.values()) * 1e3
            r.metrics = {"latency_ms": plan_s * 1e3, "quality_ms": iter_ms}
            r.info["plan_s"] = plan_s
            r.info["plan_iter_ms"] = iter_ms
        r.info["families"] = {
            f: {"plans": len(times[f]), "median_s": medians[f],
                "iter_ms": quality.get(f, math.nan) * 1e3}
            for f in FAMILIES}
        return r

    def cycle(self, tracer: Tracer) -> Tuple[float, Dict[str, object]]:
        self.tracer = tracer
        work = 0.0
        for family in FAMILIES:
            gc.collect()
            work += self.run_op(family, 0)
        return work, {}

    def close(self) -> None:
        self.capture.close()
        self.episodes.close()


# --------------------------------------------------------------------- #
# population-search
# --------------------------------------------------------------------- #
class PopulationSearch:
    """One cold Post (CEM) search per Fig. 9 family on 12 GPUs."""

    name = "population-search"

    def __init__(self, seed: int, seconds: float,
                 out_dir: str):  # noqa: ARG002
        self.seed = seed
        self.seconds = seconds
        self.golden = load_golden()["population-search"] if seed == 0 \
            else {}
        self.capture = _Capture(post.PostSearch, "search")
        self.quality: Dict[str, List[float]] = {f: [] for f in FIG9_BATCH}
        self.report = Report()
        self.tracer: Optional[Tracer] = None

    def search_seed(self, cycle: int) -> int:
        return self.seed * 1000 + cycle

    def run_op(self, family: str, cycle: int) -> float:
        """One checked cold search; returns its wall seconds."""
        search_seed = self.search_seed(cycle)
        tracer = self.tracer
        with _paused(tracer):
            graph = build_model(family, "bench",
                                batch_size=FIG9_BATCH[family])
            cluster = cluster_12gpu()
        start = time.perf_counter()
        with _root(tracer, "op.search", f"{family}-{search_seed}"):
            try:
                strategy = post.post_strategy(graph, cluster,
                                              seed=search_seed)
            except Exception as exc:  # noqa: BLE001 - counted, not fatal
                strategy = exc
        wall = time.perf_counter() - start
        self.report.attempted += 1
        _checked(self.report, f"{family} seed {search_seed}", self._check,
                 family, search_seed, graph, cluster, strategy,
                 self.capture.take())
        return wall

    def _check(self, family: str, search_seed: int, graph, cluster,
               strategy, captured) -> Optional[str]:
        if isinstance(strategy, Exception) or len(captured) != 1:
            return f"search raised {strategy!r}"
        search, result = captured[0]
        if not result.time > 0:
            return f"best time {result.time!r}"
        digest = strategy_digest(strategy)
        with _paused(self.tracer):
            fresh = PlanBuilder(
                graph, cluster, search.profile, use_order_scheduling=False,
                group_of=search.grouping.group_of).evaluate(strategy)
        # the search scores an infeasible (OOM) candidate as inf
        fresh_time = fresh.time if fresh.feasible else math.inf
        if fresh_time != result.time or digest != \
                strategy_digest(result.strategy):
            return (f"best {result.time!r} but a fresh evaluation gives "
                    f"{fresh_time!r}")
        got = {"strategy": digest, "best_s": result.time}
        want = self.golden.get(f"{family}/{search_seed}")
        if want is not None and want != got:
            # a recorded search that now ends infeasible fails here too
            return f"differs from the recorded search {want} != {got}"
        if not math.isfinite(result.time):
            # Post's CEM (placement only) may find no feasible placement,
            # e.g. transformer at batch 1080 on search seed 105001, and
            # then returns an OOM strategy; Fig. 9 draws such a bar at 0.
            # The fresh evaluation agreed and no recorded result says
            # otherwise, so the output is right: counted, not failed.
            infeasible = self.report.info.setdefault("infeasible", [])
            infeasible.append(f"{family}/{search_seed}")
            return None
        self.quality[family].append(result.time)
        self.report.info.setdefault("searches", {})[
            f"{family}/{search_seed}"] = got
        return None

    def measure(self) -> Report:
        families = list(FIG9_BATCH)
        times = _closed_loop(families, self.run_op, self.seconds)
        medians = {f: statistics.median(v) for f, v in times.items()}
        quality = {f: statistics.median(v) for f, v in self.quality.items()
                   if v}
        r = self.report
        if len(quality) == len(families):
            search_s = geomean(medians.values())
            best_ms = geomean(quality.values()) * 1e3
            r.metrics = {"latency_ms": search_s * 1e3, "quality_ms": best_ms}
            r.info["search_s"] = search_s
            r.info["search_best_ms"] = best_ms
        r.info["families"] = {
            f: {"searches": len(times[f]), "median_s": medians[f],
                "best_ms": quality.get(f, math.nan) * 1e3}
            for f in families}
        return r

    def cycle(self, tracer: Tracer) -> Tuple[float, Dict[str, object]]:
        self.tracer = tracer
        work = 0.0
        for family in FIG9_BATCH:
            gc.collect()
            work += self.run_op(family, 0)
        return work, {}

    def close(self) -> None:
        self.capture.close()


# --------------------------------------------------------------------- #
# service-mix
# --------------------------------------------------------------------- #
# No planning-request trace exists to derive the traffic from: the rate
# is measured (the service about half busy), the popularity, shares,
# repeat window and build lag are assumptions.  SPEC.json gives the
# reason for each and how far latency_ms moves when a share moves.
SERVICE_RATE = 4.0          # requests per second (open loop)
ZIPF_S = 1.0
SHARE_SEARCH, SHARE_REPEAT = 0.3, 0.5    # the rest are builds
TRACE_SEED = 20201201       # draws the request sequence (not its timing)
REPEAT_WINDOW = 32          # repeats target one of the last 32 distinct
BUILD_LAG = 8               # builds reuse a search >= 8 requests earlier
BUILD_ITERATIONS = 2
DRAIN_TIMEOUT = 60.0


@dataclass
class Planned:
    """One request of the open-loop schedule."""
    at: float                 # due time, seconds after the start
    kind: str                 # "search" | "repeat" | "build"
    context: int              # index into the 24 contexts
    episodes: int = 0
    max_rounds: int = 0
    source: int = -1          # repeat: request copied; build: its search


def stratified(rng: np.random.Generator, weights: np.ndarray,
               n: int) -> np.ndarray:
    """``n`` category draws whose counts follow ``weights`` as closely as
    whole numbers allow (largest remainder), in a seeded order."""
    weights = np.asarray(weights, dtype=float) / np.sum(weights)
    counts = np.floor(weights * n).astype(int)
    remainder = weights * n - counts
    counts[np.argsort(-remainder, kind="stable")[:n - counts.sum()]] += 1
    deck = np.repeat(np.arange(len(weights)), counts)
    rng.shuffle(deck)
    return deck


def make_schedule(seed: int, seconds: float, n_contexts: int,
                  rate: float = SERVICE_RATE) -> List[Planned]:
    """Seeded Poisson arrivals of one Zipf-popular request sequence.

    The run holds ``rate * seconds`` arrivals at uniform random times
    drawn from ``seed`` (a Poisson process given its count).  The
    sequence they carry is drawn once, from ``TRACE_SEED``: contexts
    follow Zipf over the fixed context order and the kinds of request
    keep fixed shares, so every seed asks for the same work and seeds
    differ in its timing (and, through the planner's seed, in the plans
    it finds).  Drawing the sequence per seed too made the median
    request jump between a cache hit and a search from seed to seed.
    A build's search is chosen by position (``BUILD_LAG`` requests
    earlier, 2 s at the mean rate), not by due time, so the number of
    builds does not depend on the arrival times either."""
    n = max(1, round(rate * seconds))
    times = np.sort(np.random.default_rng(seed).uniform(0.0, seconds, n))
    rng = np.random.default_rng(TRACE_SEED)
    contexts = stratified(
        rng, 1.0 / np.arange(1, n_contexts + 1) ** ZIPF_S, n)
    kinds = stratified(
        rng, [SHARE_SEARCH, SHARE_REPEAT, 1 - SHARE_SEARCH - SHARE_REPEAT],
        n)
    plan: List[Planned] = []
    searches_on: Dict[int, int] = {}
    distinct: List[int] = []   # indices of requests with a new fingerprint
    for i, (at, ctx, kind) in enumerate(zip(times.tolist(),
                                            contexts.tolist(),
                                            kinds.tolist())):
        if kind == 2:
            source = next((j for j in range(i - 1, -1, -1)
                           if plan[j].kind == "search"
                           and plan[j].context == ctx
                           and j <= i - BUILD_LAG), -1)
            if source >= 0:
                plan.append(Planned(at, "build", ctx, source=source))
                distinct.append(i)
                continue
        elif kind == 1 and distinct:
            window = distinct[-REPEAT_WINDOW:]
            source = window[int(rng.integers(len(window)))]
            plan.append(Planned(at, "repeat", plan[source].context,
                                source=source))
            continue
        # a search budget this context has not been asked for yet: one
        # or two episodes a round, with a retry allowance that grows
        # (tiny models are feasible in round one)
        k = searches_on.get(ctx, 0)
        searches_on[ctx] = k + 1
        plan.append(Planned(at, "search", ctx, episodes=1 + k % 2,
                            max_rounds=1 + k // 2))
        distinct.append(i)
    return plan


class StampingRecorder(FlightRecorder):
    """Flight recorder that also stamps when each request finished (a
    coalesced request finishes with the request it was folded onto)."""

    def __init__(self):
        super().__init__()
        self.done_at: Dict[str, float] = {}

    def finish(self, request_id, status, **kwargs):
        super().finish(request_id, status, **kwargs)
        if status != "coalesced":
            self.done_at.setdefault(request_id, time.perf_counter())


class ServiceMix:
    """Open-loop plan requests against one thread-backed service."""

    name = "service-mix"

    def __init__(self, seed: int, seconds: float,
                 out_dir: str):  # noqa: ARG002
        self.seed = seed
        c8 = cluster_8gpu()
        crashed = c8.without_devices([c8.device_ids[1]])
        graphs = [build_model(f, "tiny") for f in FAMILIES]
        # in popularity order: the 8-GPU testbed, the 4-GPU one, then
        # the replans after a crash
        self.contexts = [(g, c) for c in (c8, cluster_4gpu(), crashed)
                         for g in graphs]
        self.config = HeteroGConfig(seed=seed,
                                    agent=bench_agent_config(seed))
        self.schedule = make_schedule(seed, seconds, len(self.contexts))
        self.service = None
        self.report = Report()
        self.start_service()

    def start_service(self) -> None:
        if self.service is not None:
            self.service.close()
        self.recorder = StampingRecorder()
        self.service = PlanningService(workers=1, backend="thread",
                                       recorder=self.recorder)

    def _request(self, spec: Planned, strategy=None) -> PlanRequest:
        graph, cluster = self.contexts[spec.context]
        if spec.kind == "build":
            return PlanRequest(graph=graph, cluster=cluster,
                               strategy=strategy,
                               measure_iterations=BUILD_ITERATIONS,
                               config=self.config, label="build")
        return PlanRequest(graph=graph, cluster=cluster,
                           episodes=spec.episodes,
                           max_rounds=spec.max_rounds,
                           config=self.config, label="search")

    def _run_schedule(self, tracer: Optional[Tracer]):
        """Submit every planned request when it is due (sleeping, never
        spinning, in between); returns ``(spec, due, sent, ticket or
        error, request)`` per request."""
        service = self.service
        sent_log = []
        tickets: Dict[int, object] = {}
        requests: Dict[int, PlanRequest] = {}
        start = time.perf_counter()
        for i, spec in enumerate(self.schedule):
            due = start + spec.at
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            try:
                if spec.kind == "repeat":
                    request = self._clone(requests[spec.source])
                elif spec.kind == "build":
                    # the search it reuses was due BUILD_LAG requests
                    # earlier; a wait here shows as generator lateness
                    found = tickets[spec.source].result(DRAIN_TIMEOUT)
                    request = self._request(spec, found.strategy)
                else:
                    request = self._request(spec)
            except Exception as exc:  # noqa: BLE001 - counted, not fatal
                sent_log.append((spec, due, time.perf_counter(), exc, None))
                continue
            requests[i] = request
            sent = time.perf_counter()
            try:
                with _root(tracer, "op.submit", request.request_id):
                    ticket = service.submit(request)
            except Exception as exc:  # noqa: BLE001 - counted, not fatal
                sent_log.append((spec, due, sent, exc, request))
                continue
            tickets[i] = ticket
            sent_log.append((spec, due, sent, ticket, request))
        return sent_log

    @staticmethod
    def _clone(request: PlanRequest) -> PlanRequest:
        """A new request object with the same content (and fingerprint)."""
        return PlanRequest(graph=request.graph, cluster=request.cluster,
                           strategy=request.strategy,
                           episodes=request.episodes,
                           max_rounds=request.max_rounds,
                           measure_iterations=request.measure_iterations,
                           config=request.config, label=request.label)

    def _collect(self, sent_log, report: Report):
        """Wait for every request, check results, return latency rows."""
        deadline = time.perf_counter() + DRAIN_TIMEOUT
        rows = []
        by_fp: Dict[str, Tuple] = {}
        for spec, due, sent, ticket, request in sent_log:
            report.attempted += 1
            if isinstance(ticket, Exception):
                report.fail(f"{spec.kind} request failed: {ticket!r}")
                continue
            try:
                result = ticket.result(max(0.0, deadline
                                           - time.perf_counter()))
            except Exception as exc:  # noqa: BLE001 - counted, not fatal
                report.fail(f"{request.request_id}: {exc!r}")
                continue
            done = self.recorder.done_at.get(ticket.request.request_id)
            if done is None:
                report.fail(f"{request.request_id}: never finished")
                continue
            if result.from_cache:
                kind = "hit"
            elif ticket.request is not request:
                kind = "coalesced"
            elif result.reused_context:
                kind = "warm"
            else:
                kind = "cold"
            identity = (strategy_digest(result.strategy), result.outcome.time,
                        result.measured_time, result.feasible)
            seen = by_fp.setdefault(result.fingerprint, identity)
            if seen != identity or result.fingerprint != request.fingerprint:
                report.fail(f"{request.request_id}: result differs from an "
                            f"earlier one with the same fingerprint")
                continue
            if not result.feasible:
                report.fail(f"{request.request_id}: infeasible result")
                continue
            executed = kind in ("cold", "warm")
            rows.append({"kind": kind, "spec": spec.kind,
                         "latency": done - due, "due": due, "sent": sent,
                         "queue": result.queue_seconds if executed else None,
                         "busy": result.service_seconds if executed else 0.0,
                         "measured": result.measured_time
                         if executed and spec.kind == "build" else None})
        return rows

    def measure(self) -> Report:
        start = time.perf_counter()
        sent_log = self._run_schedule(None)
        r = self.report
        rows = self._collect(sent_log, r)
        wall = time.perf_counter() - start
        self.service.close()
        lat = [row["latency"] * 1e3 for row in rows]
        searches = [row["latency"] * 1e3 for row in rows
                    if row["spec"] == "search"]
        service = [row["busy"] * 1e3 for row in rows
                   if row["queue"] is not None]
        measured = [row["measured"] * 1e3 for row in rows
                    if row["measured"] is not None]
        if not searches or not service or not measured:
            return r
        # the gated latency is the mean service time of the executed
        # requests (dispatch to result), not a time from when they were
        # due: at half busy, queueing amplifies the machine's own drift.
        # The mean, not the geometric mean: a request's service time moves
        # with the planner seed and with where the garbage collector runs,
        # and the geometric mean weighs the short builds, which a
        # collection can double, as much as the long searches (SPEC.json
        # has the figures)
        r.metrics = {"latency_ms": statistics.mean(service),
                     "quality_ms": geomean(measured)}
        tail = tail_percentile(lat)
        late = lateness([row["due"] for row in rows],
                        [row["sent"] for row in rows])
        r.info.update({
            "service_mean_ms": r.metrics["latency_ms"],
            "service_gm_ms": geomean(service),
            "executed_n": len(service),
            "search_gm_ms": geomean(searches),
            "search_n": len(searches),
            "req_p50_ms": percentile(lat, 50),
            "req_tail_ms": tail[1] if tail else math.nan,
            "req_tail_percentile": tail[0] if tail else math.nan,
            "req_beyond_tail": tail[2] if tail else 0,
            "req_samples": len(lat),
            "busy_frac": sum(row["busy"] for row in rows) / wall,
            "gen_late_p50_ms": percentile(late, 50) * 1e3,
            "gen_late_max_ms": max(late) * 1e3,
            "rate_per_s": SERVICE_RATE,
            "requests": len(self.schedule),
        })
        for kind in ("cold", "warm", "hit", "coalesced"):
            vals = [row["latency"] * 1e3 for row in rows
                    if row["kind"] == kind]
            r.info[f"{kind}_p50_ms"] = percentile(vals, 50) if vals \
                else math.nan
            r.info[f"{kind}_n"] = len(vals)
        return r

    def cycle(self, tracer: Tracer) -> Tuple[float, Dict[str, object]]:
        self.start_service()
        cpu = time.process_time()
        sent_log = self._run_schedule(tracer)
        rows = self._collect(sent_log, self.report)
        stats = self.service.stats.snapshot()
        self.service.close()
        work = time.process_time() - cpu
        return work, {
            "service": stats,
            "queue_waits": [row["queue"] for row in rows
                            if row["queue"] is not None],
            "gen_late": lateness([row["due"] for row in rows],
                                 [row["sent"] for row in rows]),
        }

    def close(self) -> None:
        if self.service is not None:
            self.service.close()


def _checked(report: Report, label: str, check, *args) -> None:
    """Run one operation's output check; a message it returns, or an
    exception it raises, counts as one failure."""
    try:
        error = check(*args)
    except Exception as exc:  # noqa: BLE001 - counted, not fatal
        error = f"check raised {exc!r}"
    if error is not None:
        report.fail(f"{label}: {error}")


def _root(tracer: Optional[Tracer], name: str, request: str):
    """The harness's root span around one operation (none untraced)."""
    if tracer is None:
        return contextlib.nullcontext()
    return tracer.span(name, request)


@contextlib.contextmanager
def _paused(tracer: Optional[Tracer]):
    """Suspend recording around the harness's own work."""
    if tracer is None or not tracer.enabled:
        yield
        return
    tracer.enabled = False
    try:
        yield
    finally:
        tracer.enabled = True


WORKLOADS = {w.name: w for w in (ColdPlan, ServiceMix, PopulationSearch)}
