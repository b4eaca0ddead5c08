"""Per-node profiling and the slack database.

The paper's Ramiel keeps "a profile database [that] holds information about
the execution trace and the slacks during communication which can be used
offline" to guide hyperclustering.  The execution trace here is the
tracer's: a traced :class:`~repro.runtime.plan.ExecutionPlan` emits one
``cat == "plan"`` span per step, and that is the one per-step timer.
:func:`profile_model` runs a fusion-free plan (one step per node) a few
times and folds its spans into a per-node :class:`GraphProfile` — the
measured counterpart of the static cost model, which the schedule simulator
(``repro.clustering.schedule``) takes as a cost provider.
:func:`profile_plan_steps` runs the same loop over the production (fused)
plan and folds the spans into per-step rows.
"""

from __future__ import annotations

import dataclasses
import statistics
import time
from typing import Dict, List, Mapping, Tuple

import numpy as np

from repro.ir.model import Graph
from repro.ir.node import OpNode
from repro.ir.opset import attr_value
from repro.runtime.plan import ExecutionPlan
from repro.runtime.session import Session


@dataclasses.dataclass
class OpProfile:
    """Timing samples for one operator node."""

    node_name: str
    op_type: str
    samples_s: List[float] = dataclasses.field(default_factory=list)

    @property
    def mean_s(self) -> float:
        """Mean execution time in seconds."""
        return statistics.fmean(self.samples_s) if self.samples_s else 0.0

    @property
    def median_s(self) -> float:
        """Median execution time in seconds."""
        return statistics.median(self.samples_s) if self.samples_s else 0.0

    @property
    def total_s(self) -> float:
        """Total time across samples."""
        return float(sum(self.samples_s))


@dataclasses.dataclass
class GraphProfile:
    """Aggregated execution profile of one model: one entry per node."""

    model_name: str
    num_runs: int
    ops: Dict[str, OpProfile]
    wall_time_s: float
    #: the profiled plan's final memory-plan counters (allocations /
    #: signatures / slab_bytes / intermediate_bytes)
    arena_stats: Dict[str, int]
    #: slab builds and scratch growths during the *measured* runs (after
    #: warmup); 0 means the profiled hot path was allocation-free — the
    #: expected steady state once every signature has run once
    arena_allocs_during_runs: int

    def cost_provider(self, scale: float = 1e6) -> Dict[str, float]:
        """Node-name -> measured cost mapping for the schedule simulator.

        ``scale`` converts seconds into convenient integer-ish units
        (microseconds by default) so measured costs are comparable in
        magnitude to the static weights.
        """
        return {name: op.median_s * scale for name, op in self.ops.items()}

    def total_compute_s(self) -> float:
        """Sum of mean per-node times (one inference worth of work)."""
        return float(sum(op.mean_s for op in self.ops.values()))

    def slowest(self, k: int = 10) -> List[OpProfile]:
        """The k slowest nodes by mean time."""
        return sorted(self.ops.values(), key=lambda op: op.mean_s, reverse=True)[:k]

    def by_op_type(self) -> Dict[str, float]:
        """Mean time aggregated per op type (seconds)."""
        agg: Dict[str, float] = {}
        for op in self.ops.values():
            agg[op.op_type] = agg.get(op.op_type, 0.0) + op.mean_s
        return dict(sorted(agg.items(), key=lambda kv: kv[1], reverse=True))


def _session_plan(session: Session, caller: str) -> ExecutionPlan:
    if session.plan is None:
        raise ValueError(f"{caller} requires an in-process 'plan' session, "
                         f"not executor {session.executor!r}")
    return session.plan


def _traced_runs(plan: ExecutionPlan, inputs: Mapping[str, np.ndarray],
                 num_runs: int, warmup: int, tracer=None) -> Tuple[List, float, int]:
    """``warmup`` runs, clear, ``num_runs`` measured runs — all traced.

    Returns the measured runs' ``cat == "plan"`` spans, their wall time in
    seconds and the memory-plan allocations they made.  The plan's own
    tracer (if any) is restored afterwards; pass ``tracer`` to reuse an
    existing buffer (it is cleared between warmup and measurement).
    """
    from repro.observability import Tracer

    runs = max(num_runs, 1)
    if tracer is None:
        tracer = Tracer(capacity=max(4096, len(plan._steps) * runs + 64))
    had_tracer = plan.tracer
    plan.enable_tracing(tracer)
    try:
        for _ in range(max(warmup, 0)):
            plan.run(inputs)
        tracer.clear()
        allocs = plan.stats()["arena"]["allocations"]
        start = time.perf_counter()
        for _ in range(runs):
            plan.run(inputs)
        wall = time.perf_counter() - start
        allocs = plan.stats()["arena"]["allocations"] - allocs
        events = [event for event in tracer.events() if event.cat == "plan"]
    finally:
        if had_tracer is not None:
            plan.enable_tracing(had_tracer)
        else:
            plan.disable_tracing()
    return events, wall, allocs


def profile_model(
    model_or_session,
    inputs: Mapping[str, np.ndarray],
    num_runs: int = 3,
    warmup: int = 1,
) -> GraphProfile:
    """Measure per-node execution times of a model on given inputs.

    Builds a fusion-free :class:`~repro.runtime.plan.ExecutionPlan` (one
    step per node, so every node is covered) over ``model_or_session`` and
    folds the spans of ``num_runs`` traced runs into one
    :class:`OpProfile` per node.

    Parameters
    ----------
    model_or_session:
        IR model (or graph) to profile, or a ``"plan"``
        :class:`~repro.runtime.session.Session` — its compiled graph is
        profiled.  Interp and pool-backed sessions are rejected: their
        runs emit no per-node spans.
    inputs:
        Graph-input feed dictionary.
    num_runs:
        Number of measured runs (medians are robust to the first-touch
        allocation noise that the warmup does not absorb).
    warmup:
        Unmeasured warmup runs.
    """
    if isinstance(model_or_session, Session):
        name = model_or_session.model_name
        plan = ExecutionPlan(_session_plan(model_or_session, "profile_model").graph,
                             fuse=False)
    else:
        plan = ExecutionPlan(model_or_session, fuse=False)
        name = plan.model_name
    events, wall, allocs = _traced_runs(plan, inputs, num_runs, warmup)
    ops: Dict[str, OpProfile] = {}
    for event in events:
        node = event.args["node"]
        prof = ops.get(node)
        if prof is None:
            prof = ops[node] = OpProfile(node, event.args["op"])
        prof.samples_s.append(event.dur_ns / 1e9)
    return GraphProfile(model_name=name, num_runs=max(num_runs, 1), ops=ops,
                        wall_time_s=wall, arena_stats=plan.stats()["arena"],
                        arena_allocs_during_runs=allocs)


_POOL_KINDS = {"MaxPool": "pool.max", "AveragePool": "pool.avg"}


def kernel_kind(graph: Graph, node: OpNode) -> str:
    """Which kernel a node lands in: the unit of the by-kind time tables.

    A convolution reports the code path its geometry record selects
    (``conv.pointwise`` / ``conv.general`` / ``conv.depthwise``), pooling
    ``pool.max`` / ``pool.avg``; everything else — and a convolution whose
    shapes are not statically known — is its op type.
    """
    if node.op_type == "Conv":
        from repro.runtime.ops.conv import conv_kind  # kernels load on first use

        infos = [graph.tensor_info(name) for name in node.inputs[:2]]
        if all(info is not None and info.num_elements is not None for info in infos):
            hyper = [attr_value(node, name)
                     for name in ("strides", "pads", "dilations", "group")]
            return "conv." + conv_kind(infos[0].shape, infos[1].shape, *hyper)
    return _POOL_KINDS.get(node.op_type, node.op_type)


def summarize_kinds(rows: List[Dict]) -> List[Dict]:
    """Aggregate per-step rows (``kind``, ``count``, ``total_ms``) by kernel kind.

    One row per kind, most expensive first: ``count`` plan steps of that
    kind, their total milliseconds and their share of the whole table.
    """
    totals: Dict[str, List[float]] = {}
    for row in rows:
        entry = totals.setdefault(row["kind"], [0, 0.0])
        entry[0] += 1
        entry[1] += row["total_ms"]
    grand_total = sum(total for _, total in totals.values()) or 1.0
    return [{"kind": kind, "count": count, "total_ms": round(total, 3),
             "share": f"{100.0 * total / grand_total:.1f}%"}
            for kind, (count, total) in sorted(
                totals.items(), key=lambda item: item[1][1], reverse=True)]


def plan_step_rows(graph: Graph, events) -> List[Dict]:
    """One row per plan step from the ``cat == "plan"`` spans among ``events``.

    Schedule order; each row carries the step's label, head op and node,
    kernel ``kind`` (:func:`kernel_kind`), fused tail and count / total /
    mean / median milliseconds over the spans seen.
    """
    samples: Dict[str, List[int]] = {}
    meta: Dict[str, Dict] = {}
    for event in events:
        if event.cat != "plan":
            continue
        if event.name not in samples:
            samples[event.name] = []
            meta[event.name] = event.args
        samples[event.name].append(event.dur_ns)
    nodes = {node.name: node for node in graph.nodes}
    rows: List[Dict] = []
    for label, durs in samples.items():
        info = meta[label]
        rows.append({
            "step": label,
            "op": info["op"],
            "node": info["node"],
            "kind": kernel_kind(graph, nodes[info["node"]]),
            "fused": info.get("fused", ""),
            "count": len(durs),
            "total_ms": sum(durs) / 1e6,
            "mean_ms": statistics.fmean(durs) / 1e6,
            "median_ms": statistics.median(durs) / 1e6,
        })
    return rows


def profile_plan_steps(
    plan_or_session,
    inputs: Mapping[str, np.ndarray],
    num_runs: int = 20,
    warmup: int = 2,
    tracer=None,
) -> List[Dict]:
    """Per-step timings of the *fused* plan hot path, via the span tracer.

    Unlike :func:`profile_model` — which disables fusion for 1:1 node
    attribution — this measures the production step loop exactly as
    serving executes it: fused chains stay fused, heavy destination passing
    stays on, and each step's span carries its fused tail in the args.
    Powers the per-step table of the ``repro trace`` CLI verb.

    Accepts an :class:`~repro.runtime.plan.ExecutionPlan`, a ``"plan"``
    :class:`~repro.runtime.session.Session` or a model; pass a ``tracer``
    to reuse an existing buffer (it is cleared between warmup and
    measurement).  Returns :func:`plan_step_rows` of the measured runs: one
    row per plan step, schedule order, aggregated over ``num_runs``.
    """
    if isinstance(plan_or_session, Session):
        plan = _session_plan(plan_or_session, "profile_plan_steps")
    elif isinstance(plan_or_session, ExecutionPlan):
        plan = plan_or_session
    else:
        plan = ExecutionPlan(plan_or_session)
    events, _, _ = _traced_runs(plan, inputs, num_runs, warmup, tracer)
    return plan_step_rows(plan.graph, events)
