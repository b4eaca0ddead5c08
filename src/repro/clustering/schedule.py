"""Deterministic schedule simulation of a clustering on a multicore.

The paper evaluates its clusterings by generating parallel Python code and
timing it on a 12-core Xeon.  This module provides the deterministic
counterpart used by the benchmark harness: a discrete-event simulation that
executes each cluster's node list in order on its assigned core, charges a
configurable latency for every cross-cluster tensor message and a fixed
startup overhead per cluster (modelling the Python-process fork the paper's
runtime pays per cluster), and reports makespan, per-cluster idle time and
the slack windows that motivate hyperclustering.

Node durations come either from the static cost model (default) or from a
measured cost provider (``repro.runtime.profiler``), so the same simulator
supports both "predicted" and "measured-cost" experiments.

Each node counts its unfinished in-edges; when the last one finishes, the
node's dependency-ready time (latest input arrival, message latency
included) is computed once and cached.  A step then costs one head
comparison per unfinished cluster, with no rescan of in-edges, and the
whole simulation O(V * C + E).  The schedule is exactly that of re-walking
every head's in-edges at every step (``tests/test_clustering_oracles.py``
keeps that formulation as the oracle).
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro.clustering.cluster import Cluster, Clustering
from repro.clustering.placement import bind_to_workers


@dataclasses.dataclass
class SimulationConfig:
    """Knobs of the schedule simulator.

    Parameters
    ----------
    num_cores:
        Number of physical cores (the paper's machine exposes 12).
    message_latency:
        Cost charged on the receiving side for every cross-cluster tensor
        dependence (the paper adds a unit edge cost in its static analysis;
        the real queue transfer is more expensive, so benchmarks typically
        use a value > 1).
    per_cluster_overhead:
        One-time startup cost per cluster, modelling process creation and
        scheduling overhead.  This is what makes 67-cluster NASNet fall
        short of its 3.7x potential (Table IV) and what cluster merging is
        designed to amortize.
    sequential_overhead:
        Fixed overhead added to the simulated sequential run (interpreter
        startup); usually 0.
    node_scale:
        Multiplier applied to every node duration (used to model intra-op
        parallelism: with t threads heavy ops shrink sub-linearly).
    """

    num_cores: int = 12
    message_latency: float = 4.0
    per_cluster_overhead: float = 20.0
    sequential_overhead: float = 0.0
    node_scale: float = 1.0


@dataclasses.dataclass
class ScheduleResult:
    """Outcome of one schedule simulation."""

    model_name: str
    num_clusters: int
    num_cores_used: int
    makespan: float
    sequential_time: float
    node_start: Dict[str, float]
    node_finish: Dict[str, float]
    cluster_busy: Dict[int, float]
    cluster_idle: Dict[int, float]
    cluster_finish: Dict[int, float]
    num_messages: int
    message_cost: float

    @property
    def speedup(self) -> float:
        """Sequential time divided by parallel makespan."""
        if self.makespan <= 0:
            return 1.0
        return self.sequential_time / self.makespan

    @property
    def total_slack(self) -> float:
        """Total idle time across clusters (the hyperclustering opportunity)."""
        return float(sum(self.cluster_idle.values()))

    def as_row(self) -> dict:
        """Benchmark-table row."""
        return {
            "model": self.model_name,
            "clusters": self.num_clusters,
            "seq_time": round(self.sequential_time, 1),
            "par_time": round(self.makespan, 1),
            "speedup": round(self.speedup, 2),
        }


class ScheduleSimulator:
    """Event-driven simulator for cluster schedules."""

    def __init__(self, config: Optional[SimulationConfig] = None) -> None:
        self.config = config or SimulationConfig()

    # ------------------------------------------------------------------
    def node_duration(
        self,
        clustering: Clustering,
        name: str,
        cost_provider: Optional[Mapping[str, float]] = None,
    ) -> float:
        """Duration of one node under the active cost source and scaling."""
        if cost_provider is not None and name in cost_provider:
            base = float(cost_provider[name])
        else:
            base = float(clustering.dfg.node(name).cost)
        return max(base, 0.0) * self.config.node_scale

    def sequential_time(
        self,
        clustering: Clustering,
        cost_provider: Optional[Mapping[str, float]] = None,
    ) -> float:
        """Simulated single-core execution time (no messages, no cluster overhead)."""
        total = sum(self.node_duration(clustering, n, cost_provider)
                    for n in clustering.dfg.node_names())
        return total + self.config.sequential_overhead

    # ------------------------------------------------------------------
    def simulate(
        self,
        clustering: Clustering,
        cost_provider: Optional[Mapping[str, float]] = None,
    ) -> ScheduleResult:
        """Simulate the clustered execution and return timing results.

        Clusters are bound to cores by
        :func:`~repro.clustering.placement.bind_to_workers`, the rule the
        runtime places them with.  Each core executes at most one node at a
        time; nodes within a cluster follow the cluster's list order; a node
        additionally waits for all of its dataflow predecessors, paying
        ``message_latency`` for each predecessor that lives in a different
        cluster.
        """
        cfg = self.config
        dfg = clustering.dfg
        clusters = clustering.clusters
        owner = clustering.assignment()

        # --- core binding ----------------------------------------------------
        num_cores = max(1, min(cfg.num_cores, len(clusters)))
        cluster_core = bind_to_workers(clustering, num_cores)

        # --- event-driven simulation -----------------------------------------
        node_start: Dict[str, float] = {}
        node_finish: Dict[str, float] = {}
        next_index: Dict[int, int] = {c.cluster_id: 0 for c in clusters}
        cluster_available: Dict[int, float] = {
            c.cluster_id: cfg.per_cluster_overhead for c in clusters
        }
        core_available: Dict[int, float] = {core: 0.0 for core in range(num_cores)}
        cluster_busy: Dict[int, float] = {c.cluster_id: 0.0 for c in clusters}
        cluster_first_start: Dict[int, Optional[float]] = {c.cluster_id: None for c in clusters}
        cluster_finish: Dict[int, float] = {c.cluster_id: 0.0 for c in clusters}
        num_messages = 0
        message_cost_total = 0.0

        # Unfinished in-edges per node; when the last one finishes, the
        # node's dependency-ready time is fixed and cached.
        waiting = {n: dfg.in_degree(n) for n in dfg.node_names()}
        dep_ready: Dict[str, float] = {n: 0.0 for n, count in waiting.items() if not count}
        active = [c for c in clusters if c.nodes]

        while active:
            # The earliest-starting head node among the unfinished clusters
            # whose dependences have all completed.
            best: Optional[Tuple[float, int, str]] = None
            for cluster in active:
                cid = cluster.cluster_id
                name = cluster.nodes[next_index[cid]]
                if waiting[name]:
                    continue
                key = (max(dep_ready[name], cluster_available[cid],
                           core_available[cluster_core[cid]]), cid, name)
                if best is None or key < best:
                    best, chosen = key, cluster
            if best is None:  # pragma: no cover - impossible for valid clusterings
                raise RuntimeError(
                    f"schedule simulation stalled for {dfg.name!r}: "
                    "clustering induces a circular wait"
                )

            start, cluster_id, name = best
            duration = self.node_duration(clustering, name, cost_provider)
            finish = start + duration
            node_start[name] = start
            node_finish[name] = finish
            core = cluster_core[cluster_id]

            for e in dfg.in_edges(name):
                if owner[e.src] != cluster_id:
                    num_messages += 1
                    message_cost_total += cfg.message_latency
            for succ in dfg.successors(name):
                waiting[succ] -= 1
                if not waiting[succ]:
                    ready = 0.0
                    for e in dfg.in_edges(succ):
                        arrival = node_finish[e.src]
                        if owner[e.src] != owner.get(succ):
                            arrival += cfg.message_latency
                        ready = max(ready, arrival)
                    dep_ready[succ] = ready

            next_index[cluster_id] += 1
            if next_index[cluster_id] == len(chosen.nodes):
                active.remove(chosen)
            cluster_available[cluster_id] = finish
            core_available[core] = finish
            cluster_busy[cluster_id] += duration
            cluster_finish[cluster_id] = finish
            if cluster_first_start[cluster_id] is None:
                cluster_first_start[cluster_id] = start

        makespan = max(node_finish.values()) if node_finish else 0.0
        cluster_idle: Dict[int, float] = {}
        for cluster in clusters:
            cid = cluster.cluster_id
            first = cluster_first_start[cid] or 0.0
            span = cluster_finish[cid] - first
            cluster_idle[cid] = max(span - cluster_busy[cid], 0.0)

        return ScheduleResult(
            model_name=dfg.name,
            num_clusters=len(clusters),
            num_cores_used=num_cores,
            makespan=makespan,
            sequential_time=self.sequential_time(clustering, cost_provider),
            node_start=node_start,
            node_finish=node_finish,
            cluster_busy=cluster_busy,
            cluster_idle=cluster_idle,
            cluster_finish=cluster_finish,
            num_messages=num_messages,
            message_cost=message_cost_total,
        )


def intra_op_node_scale(num_threads: int, parallel_fraction: float = 0.7) -> float:
    """Amdahl-style per-node scaling used to model intra-op parallelism.

    With ``num_threads`` OpenMP-style threads, the parallelizable fraction of
    each operator shrinks linearly while the rest stays serial.  The default
    fraction (0.7) reproduces the diminishing returns the paper observes in
    Table V when moving from 2 to 4 threads.
    """
    if num_threads < 1:
        raise ValueError("num_threads must be >= 1")
    return (1.0 - parallel_fraction) + parallel_fraction / float(num_threads)
