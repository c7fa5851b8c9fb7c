"""Batched population simulation: lane-stacked admissible bounds.

Every search path (REINFORCE episodes, CEM rounds, the multijob oracle,
elastic replanning) evaluates a *population* of candidate strategies of
one source graph.  The serial pipeline pays compile -> lower -> schedule
for each candidate before any of them can be rejected; on a 16-candidate
cold search the compile step alone is the dominant cost, yet most
candidates lose by a wide margin.

This module lowers the **source graph once** into a :class:`LanePlanner`
and then prices K candidate strategies ("lanes") against it without
compiling any of them.  Per lane it reconstructs, by mirroring
:class:`~repro.parallel.compiler.GraphCompiler` decision-for-decision:

- every compute/apply instance the compiler would create (one per
  ``batch_shares()`` entry) and its exact profiled duration;
- every transfer the router would insert — broadcast, gather/concat/
  split/slice chains with the compiler's own route-dedup keys, PS
  push/aggregate/apply/pull chains (including the stateful
  ``choose_ps_device`` load balancing, replayed in the same topological
  order), and ring/hierarchical AllReduce collectives (same
  ``choose_allreduce`` selection, same cached collective times).

From that reconstruction each lane gets an **admissible lower bound**
on its simulated makespan, the max of

- the *no-contention critical path*: earliest-finish DP over (op,
  device) states with exact edge costs — every true start time is >=
  its no-contention start, so the DP's max finish can never exceed the
  simulated makespan;
- the *strengthened busy-resource bound*: for every device, link, NIC
  port and the NCCL token, ``min earliest-start + total busy time`` —
  all holders run exclusively, none can start before the earliest
  no-contention start among them.

Per-op results are stacked into ``(K, n_ops)`` arrays (earliest finish
per source op per lane) and the bounds into a length-``K`` vector, which
is what :meth:`~repro.plan.builder.PlanBuilder.evaluate_many` orders
lanes by and prunes against a shared
:class:`~repro.plan.pruning.BestSoFar` snapshot.  Lanes the bound
cannot kill run the unchanged serial pipeline, so every surviving
lane's outcome is bit-identical to its serial evaluation by
construction.

Admissibility is the whole contract: a bound that overestimated would
prune a potential winner.  Any lane whose reconstruction fails (a
strategy the compiler would reject, an op the profile cannot price)
degrades to ``-inf`` — never pruned, fully evaluated, so errors are
reported by the real pipeline, not guessed here.  The paired-fuzz suite
(``tests/test_batched_identity.py``) hammers bound <= true makespan
across graphs, strategies and cost regimes.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..cluster.topology import Cluster
from ..graph.dag import ComputationGraph
from ..graph.op import Operation, OpPhase
from ..parallel.aggregation import choose_allreduce, choose_ps_device
from ..parallel.strategy import CommMethod, Strategy
from .costs import ProfileCostModel, _aux_compute_time

_SHARE_TOL = 1e-9  # must match GraphCompiler._SHARE_TOL


class _LaneInfeasible(Exception):
    """Lane reconstruction hit a case the compiler would reject (or one
    this mirror does not model); the lane's bound degrades to -inf."""


class LanePlanner:
    """One source-graph lowering shared by every lane of a population.

    Bound to one (graph, cluster, cost) context like the PlanBuilder
    that owns it.  All profiled quantities are read through the cost
    model's own caches (``_op_time_cache`` / ``_transfer_cache`` /
    ``_allreduce_cache``), so lane pricing and the real simulations of
    surviving candidates share one pricing pass per distinct key.
    """

    def __init__(self, graph: ComputationGraph, cluster: Cluster,
                 cost: ProfileCostModel):
        self.graph = graph
        self.cluster = cluster
        self.cost = cost
        self.usable = (
            isinstance(cost, ProfileCostModel)
            and getattr(cost, "deterministic", False)
        )
        self.n_ops = 0
        if not self.usable:
            return
        self.profile = cost.profile
        self._spec_of = cost._spec_of
        self._lookup = cost.link_lookup
        # (devices, bytes) -> hierarchical? (choose_allreduce is pure)
        self._ar_choice: Dict[Tuple[Tuple[str, ...], float], bool] = {}
        # (src, dst) -> same-server? (NIC ports exist only across servers)
        self._same_server: Dict[Tuple[str, str], bool] = {}
        self._dev_server = {d: cluster.device(d).server
                            for d in cluster.device_ids}

        # topological walk over the source graph, APPLY ops resolved to
        # their parameter-gradient producer exactly like the compiler
        self.ops: List[Operation] = []
        self.preds: List[List[Operation]] = []
        self.apply_of: Dict[str, Operation] = {}
        self.index: Dict[str, int] = {}
        for name in graph.topological_order():
            op = graph.op(name)
            if op.phase is OpPhase.APPLY:
                continue
            self.index[op.name] = len(self.ops)
            self.ops.append(op)
            self.preds.append([graph.op(p)
                               for p in graph.predecessors(op.name)])
            if op.produces_param_gradient:
                applies = [graph.op(s) for s in graph.successors(op.name)
                           if graph.op(s).phase is OpPhase.APPLY]
                # != 1 is a CompileError at compile time; mark it so the
                # lane degrades instead of bounding a graph the compiler
                # will reject anyway
                if len(applies) == 1:
                    self.apply_of[op.name] = applies[0]
        self.n_ops = len(self.ops)

    # ------------------------------------------------------------------ #
    # cached pricing through the cost model's own caches
    def _op_t(self, name: str, device: str, fraction: float) -> float:
        key = (name, device, fraction)
        cache = self.cost._op_time_cache
        t = cache.get(key)
        if t is None:
            t = cache[key] = self.profile.op_time(*key)
        return t

    def _tr_t(self, src: str, dst: str, size_bytes: float) -> float:
        key = (src, dst, size_bytes)
        cache = self.cost._transfer_cache
        t = cache.get(key)
        if t is None:
            from .costs import SENDRECV_OVERHEAD
            t = cache[key] = SENDRECV_OVERHEAD + \
                self.profile.transfer_time(*key)
        return t

    def _ar_t(self, devices: Tuple[str, ...], size_bytes: float
              ) -> Tuple[bool, float]:
        ckey = (devices, size_bytes)
        hier = self._ar_choice.get(ckey)
        if hier is None:
            hier, est = choose_allreduce(devices, size_bytes, self._lookup,
                                         self.cluster)
            self._ar_choice[ckey] = hier
            # seed the cost model's collective cache with the same value
            # the chosen structure prices to
            self.cost._allreduce_cache.setdefault(
                (devices, size_bytes, hier), est)
            return hier, est
        key = (devices, size_bytes, hier)
        cache = self.cost._allreduce_cache
        t = cache.get(key)
        if t is None:
            from ..parallel.aggregation import allreduce_time
            t = cache[key] = allreduce_time(devices, size_bytes,
                                            self._lookup, self.cluster, hier)
        return hier, t

    def _cross_server(self, src: str, dst: str) -> bool:
        key = (src, dst)
        same = self._same_server.get(key)
        if same is None:
            same = self._dev_server[src] == self._dev_server[dst]
            self._same_server[key] = same
        return not same

    # ------------------------------------------------------------------ #
    def bounds(self, strategies: Sequence[Strategy]
               ) -> Tuple[np.ndarray, np.ndarray]:
        """Admissible makespan lower bounds for K candidate lanes.

        Returns ``(bounds, finish)``: a ``(K,)`` vector of admissible
        lower bounds (``-inf`` for lanes whose reconstruction failed —
        they must be fully evaluated) and the ``(K, n_ops)`` stacked
        earliest-finish matrix over the source ops (0 where a lane
        failed).  Bounds never overestimate the simulated makespan.
        """
        k = len(strategies)
        finish = np.zeros((k, self.n_ops))
        bounds = np.full(k, float("-inf"))
        if not self.usable:
            return bounds, finish
        for lane, strategy in enumerate(strategies):
            try:
                bounds[lane] = self._lane(strategy, finish[lane])
            except Exception:
                # anything the mirror cannot price (a strategy the
                # compiler rejects, a missing profile entry, a modelling
                # gap) falls back to full evaluation: -inf never prunes
                bounds[lane] = float("-inf")
                finish[lane] = 0.0
        return bounds, finish

    # ------------------------------------------------------------------ #
    def _lane(self, strategy: Strategy, finish_row: np.ndarray) -> float:
        """No-contention earliest-finish DP + strengthened busy bounds
        for one lane, mirroring the compiler's lowering decisions."""
        graph = self.graph
        op_t = self._op_t
        tr_t = self._tr_t

        # op name -> {device: no-contention earliest finish}
        fin: Dict[str, Dict[str, float]] = {}
        # resolved OpStrategy per op (param-grad/apply follow forward)
        st_of: Dict[str, object] = {}
        # resource accounting: key -> (min earliest start, total busy).
        # Keys: device strings, ('l', src, dst) links, ('o', server) /
        # ('i', server) NIC ports, and the NCCL token ('nccl',).
        starts: Dict[object, float] = {}
        busy: Dict[object, float] = {}
        # mirrors GraphCompiler._route_cache: same dedup keys, but the
        # value is the transfer's finish time instead of its dist-op name
        routes: Dict[Tuple, float] = {}
        split_memo: Dict[str, Tuple[str, float]] = {}
        ps_load: Dict[str, float] = {}
        cp = 0.0

        def hold(res: object, start: float, dur: float) -> None:
            nonlocal cp
            b = busy.get(res)
            if b is None:
                busy[res] = dur
                starts[res] = start
            else:
                busy[res] = b + dur
                if start < starts[res]:
                    starts[res] = start

        def transfer(src: str, dst: str, size_bytes: float,
                     ready: float) -> float:
            """Charge one point-to-point transfer; returns its finish."""
            t = tr_t(src, dst, size_bytes)
            hold(('l', src, dst), ready, t)
            if self._cross_server(src, dst):
                hold(('o', self._dev_server[src]), ready, t)
                hold(('i', self._dev_server[dst]), ready, t)
            return ready + t

        def resolved(op: Operation):
            st = st_of.get(op.name)
            if st is None:
                if op.forward_ref is not None and (
                    op.produces_param_gradient or op.phase is OpPhase.APPLY
                ):
                    st = strategy.get(op.forward_ref)
                else:
                    st = strategy.get(op.name)
                st_of[op.name] = st
            return st

        def arrival(pred: Operation, device: str, fraction: float) -> float:
            """Finish time of whatever makes ``pred``'s output available
            on ``device`` — the compiler's ``_tensor_at``, priced."""
            memo_key = (pred.name, device, fraction)
            cached = routes.get(memo_key)
            if cached is not None:
                return cached
            pred_fin = fin[pred.name]
            if pred.output.batch_dim is None:
                # unbatched broadcast: requires a single producer
                if len(pred_fin) != 1:
                    raise _LaneInfeasible(pred.name)
                (src, f), = pred_fin.items()
                bkey = (pred.name, device, "bc")
                if src == device:
                    out = f
                else:
                    out = routes.get(bkey)
                    if out is None:
                        out = routes[bkey] = transfer(
                            src, device, float(pred.output.size_bytes), f)
            else:
                pred_shares = resolved(pred).batch_shares()
                share = pred_shares.get(device)
                if share is not None and abs(share - fraction) < _SHARE_TOL:
                    out = pred_fin[device]
                else:
                    out = _slice_arrival(pred, pred_shares, device, fraction)
            routes[memo_key] = out
            return out

        def _slice_arrival(pred: Operation, pred_shares: Mapping[str, float],
                           device: str, fraction: float) -> float:
            full_bytes = float(pred.output.size_bytes)
            memo = split_memo.get(pred.name)
            if memo is None:
                pred_fin = fin[pred.name]
                gather = max(pred_shares,
                             key=lambda d: (pred_shares[d], d))
                spec = self._spec_of[gather]
                if len(pred_shares) == 1:
                    concat_f = pred_fin[gather]
                else:
                    ready = pred_fin[gather]
                    for dev, share in pred_shares.items():
                        if dev == gather:
                            continue
                        gkey = (pred.name, dev, "gather")
                        f = routes.get(gkey)
                        if f is None:
                            f = routes[gkey] = transfer(
                                dev, gather, full_bytes * share,
                                pred_fin[dev])
                        if f > ready:
                            ready = f
                    concat_dur = _aux_compute_time(spec, full_bytes)
                    hold(gather, ready, concat_dur)
                    concat_f = ready + concat_dur
                split_dur = _aux_compute_time(spec, full_bytes)
                hold(gather, concat_f, split_dur)
                memo = (gather, concat_f + split_dur)
                split_memo[pred.name] = memo
            gather, split_f = memo
            if device == gather:
                return split_f
            skey = (pred.name, device, "slice", round(fraction, 12))
            out = routes.get(skey)
            if out is None:
                out = routes[skey] = transfer(
                    gather, device, full_bytes * fraction, split_f)
            return out

        for i, op in enumerate(self.ops):
            st = resolved(op)
            shares = st.batch_shares()
            if not shares:
                raise _LaneInfeasible(op.name)
            op_fin: Dict[str, float] = {}
            preds = self.preds[i]
            op_max = 0.0
            for device, fraction in shares.items():
                ready = 0.0
                for pred in preds:
                    a = arrival(pred, device, fraction)
                    if a > ready:
                        ready = a
                dur = op_t(op.name, device, fraction)
                hold(device, ready, dur)
                f = ready + dur
                op_fin[device] = f
                if f > op_max:
                    op_max = f
            fin[op.name] = op_fin
            finish_row[i] = op_max
            if op_max > cp:
                cp = op_max
            if op.produces_param_gradient:
                cp = max(cp, self._aggregate(op, st, op_fin, fin,
                                             hold, transfer, ps_load, op_t))

        # strengthened busy-resource bounds: every holder of r runs on it
        # exclusively and none can start before the earliest
        # no-contention start among them
        bound = cp
        for res, b in busy.items():
            s = starts[res] + b
            if s > bound:
                bound = s
        return bound

    # ------------------------------------------------------------------ #
    def _aggregate(self, op: Operation, st, op_fin: Dict[str, float],
                   fin: Dict[str, Dict[str, float]], hold, transfer,
                   ps_load: Dict[str, float], op_t) -> float:
        """Mirror of ``_lower_param_gradient``: PS chains, AllReduce
        collectives, and the trailing ApplyGradient instances."""
        apply_op = self.apply_of.get(op.name)
        if apply_op is None:
            raise _LaneInfeasible(op.name)
        devices = st.devices()
        grad_bytes = float(op.output.size_bytes)
        apply_fin: Dict[str, float] = {}
        cp = 0.0

        if len(devices) == 1:
            dev = devices[0]
            ready = max(op_fin.values())
            dur = op_t(apply_op.name, dev, 1.0)
            hold(dev, ready, dur)
            cp = apply_fin[dev] = ready + dur
        elif st.comm is CommMethod.PS:
            ps_dev = choose_ps_device(devices, grad_bytes, self._lookup,
                                      load=ps_load)
            ready = 0.0
            for dev in devices:
                f = op_fin[dev]
                a = f if dev == ps_dev else transfer(dev, ps_dev,
                                                     grad_bytes, f)
                if a > ready:
                    ready = a
            spec = self._spec_of[ps_dev]
            agg_dur = _aux_compute_time(spec, grad_bytes * len(devices))
            hold(ps_dev, ready, agg_dur)
            agg_f = ready + agg_dur
            apply_dur = op_t(apply_op.name, ps_dev, 1.0)
            hold(ps_dev, agg_f, apply_dur)
            apply_f = agg_f + apply_dur
            cp = apply_fin[ps_dev] = apply_f
            for dev in devices:
                if dev == ps_dev:
                    continue
                pull_f = transfer(ps_dev, dev, float(op.param_bytes),
                                  apply_f)
                if pull_f > cp:
                    cp = pull_f
        elif st.comm is CommMethod.ALLREDUCE:
            dev_tuple = tuple(devices)
            _, ar_dur = self._ar_t(dev_tuple, grad_bytes)
            ready = max(op_fin.values())
            hold(('nccl',), ready, ar_dur)
            n = len(dev_tuple)
            seen_ports = set()
            for j in range(n):
                a, b = dev_tuple[j], dev_tuple[(j + 1) % n]
                if a == b:
                    continue
                hold(('l', a, b), ready, ar_dur)
                if self._cross_server(a, b):
                    for port in (('o', self._dev_server[a]),
                                 ('i', self._dev_server[b])):
                        if port not in seen_ports:
                            seen_ports.add(port)
                            hold(port, ready, ar_dur)
            ar_f = ready + ar_dur
            for dev in devices:
                dur = op_t(apply_op.name, dev, 1.0)
                hold(dev, ar_f, dur)
                f = apply_fin[dev] = ar_f + dur
                if f > cp:
                    cp = f
        else:
            raise _LaneInfeasible(op.name)

        fin[apply_op.name] = apply_fin
        return cp
