"""Differential oracles for linear clustering and the schedule simulator.

``linear_clustering`` takes its ready nodes off a heap and
``ScheduleSimulator.simulate`` fixes each node's dependency-ready time once;
both must give exactly what the formulations they replaced gave.  Those are
kept here verbatim as the oracles — ``reference_linear_clustering`` rescans
the remainder graph after every extracted path, as the paper states
Algorithm 1, and ``reference_simulate`` re-walks every cluster head's
in-edges at every step — the way the kernel property tests keep the per-tap
column fill.  Random DAGs (ties, zero costs, repeated edges), their batch
replicas, hyperclusters and folds onto fewer workers, under varied simulator
settings and cost providers, must give the same clusters in the same order
and every ``ScheduleResult`` field equal; so must the 16 rows of the zoo
(8 full-size models, with and without cloning) through ``ramiel_compile``.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Dict, List, Mapping, Optional, Set, Tuple

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.clustering import (
    ScheduleSimulator,
    SimulationConfig,
    build_hyperclusters,
    build_switched_hyperclusters,
    linear_clustering,
    merge_clusters_fixpoint,
    replicate_for_batch,
)
from repro.clustering.cluster import Cluster, Clustering
from repro.clustering.placement import bind_to_workers, fold_onto_workers
from repro.clustering.schedule import ScheduleResult
from repro.graph.critical_path import compute_distance_to_end
from repro.graph.dataflow import DataflowGraph
from repro.models import build_model, list_models
from repro.pipeline import PipelineConfig, ramiel_compile
from tests.conftest import random_dags


def reference_linear_clustering(
    dfg: DataflowGraph,
    distance_to_end: Optional[Dict[str, float]] = None,
    include_edge_cost: bool = True,
) -> Clustering:
    """Algorithm 1 rescanning the remainder graph after every path.

    Cluster a dataflow graph into linear chains (Algorithm 1).

    Parameters
    ----------
    dfg:
        The dataflow graph to cluster (not modified).
    distance_to_end:
        Precomputed distance pass result; computed on the fly when omitted.
    include_edge_cost:
        Whether the distance pass charges unit edge costs (paper default).

    Returns
    -------
    Clustering
        Clusters are numbered in extraction order: cluster 0 is the first
        critical path, cluster 1 the next-longest path of the remainder
        graph, and so on.  Every node appears in exactly one cluster.
    """
    dist = distance_to_end or compute_distance_to_end(dfg, include_edge_cost)

    # Mutable view of the remaining graph: successor/predecessor sets that we
    # edit destructively, exactly like the edge removals in Algorithm 1.
    remaining: Set[str] = set(dfg.node_names())
    succ: Dict[str, List[str]] = {n: list(dfg.successors(n)) for n in remaining}
    pred: Dict[str, List[str]] = {n: list(dfg.predecessors(n)) for n in remaining}
    index = {n: dfg.node(n).index for n in remaining}

    def sort_key(name: str) -> Tuple[float, int]:
        # Larger distance first, then original order.
        return (-dist[name], index[name])

    clusters: List[Cluster] = []
    cluster_id = 0

    while remaining:
        # Start a new critical path from the best ready node.
        ready = [n for n in remaining if not pred[n]]
        if not ready:
            # The destructive edge removal can in principle leave only nodes
            # whose recorded predecessors were already consumed; treat every
            # remaining node whose predecessors are all gone as ready.
            ready = [n for n in remaining
                     if all(p not in remaining for p in pred[n])]
        if not ready:  # pragma: no cover - defensive, cannot happen on a DAG
            ready = list(remaining)
        current = min(ready, key=sort_key)

        path = [current]
        remaining.discard(current)

        while succ[current]:
            candidates = [s for s in succ[current] if s in remaining]
            if not candidates:
                break
            nxt = min(candidates, key=sort_key)

            # Remove all outgoing edges of `current` other than current->nxt.
            for other in succ[current]:
                if other != nxt and current in pred.get(other, ()):
                    pred[other] = [p for p in pred[other] if p != current]
            succ[current] = [nxt]

            # Remove all other incoming edges of `nxt`.
            for other_pred in pred[nxt]:
                if other_pred != current and nxt in succ.get(other_pred, ()):
                    succ[other_pred] = [s for s in succ[other_pred] if s != nxt]
            pred[nxt] = []

            path.append(nxt)
            remaining.discard(nxt)
            current = nxt

        clusters.append(Cluster(cluster_id, path))
        cluster_id += 1

        # Drop edges that point at already-clustered nodes so the ready set
        # of the next iteration is computed on the remainder graph.
        for name in remaining:
            pred[name] = [p for p in pred[name] if p in remaining]

    return Clustering(dfg=dfg, clusters=clusters, distance_to_end=dist)


def reference_simulate(
    self: ScheduleSimulator,
    clustering: Clustering,
    cost_provider: Optional[Mapping[str, float]] = None,
) -> ScheduleResult:
    """``ScheduleSimulator.simulate`` re-walking every cluster head's
    in-edges at every step (call it with the simulator as ``self``).

    Simulate the clustered execution and return timing results.

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

    total_nodes = sum(len(c) for c in clusters)
    scheduled = 0
    cluster_by_id = {c.cluster_id: c for c in clusters}

    while scheduled < total_nodes:
        # Collect the head node of every unfinished cluster whose
        # dependences have all completed.
        best: Optional[Tuple[float, int, str]] = None
        for cluster in clusters:
            idx = next_index[cluster.cluster_id]
            if idx >= len(cluster.nodes):
                continue
            name = cluster.nodes[idx]
            preds = dfg.in_edges(name)
            if any(e.src not in node_finish for e in preds):
                continue
            dep_ready = 0.0
            for e in preds:
                arrival = node_finish[e.src]
                if owner[e.src] != cluster.cluster_id:
                    arrival += cfg.message_latency
                dep_ready = max(dep_ready, arrival)
            core = cluster_core[cluster.cluster_id]
            start = max(dep_ready,
                        cluster_available[cluster.cluster_id],
                        core_available[core])
            key = (start, cluster.cluster_id, name)
            if best is None or key < best:
                best = key
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
        cluster = cluster_by_id[cluster_id]
        core = cluster_core[cluster_id]

        for e in dfg.in_edges(name):
            if owner[e.src] != cluster_id:
                num_messages += 1
                message_cost_total += cfg.message_latency

        next_index[cluster_id] += 1
        cluster_available[cluster_id] = finish
        core_available[core] = finish
        cluster_busy[cluster_id] += duration
        cluster_finish[cluster_id] = finish
        if cluster_first_start[cluster_id] is None:
            cluster_first_start[cluster_id] = start
        scheduled += 1

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


def clusters_of(clustering: Clustering) -> List[Tuple[int, List[str]]]:
    return [(c.cluster_id, list(c.nodes)) for c in clustering.clusters]


def assert_same_schedule(got: ScheduleResult, want: ScheduleResult) -> None:
    """Every field equal, and the nodes recorded in the same (schedule) order."""
    assert dataclasses.asdict(got) == dataclasses.asdict(want)
    assert list(got.node_start.items()) == list(want.node_start.items())
    assert list(got.node_finish.items()) == list(want.node_finish.items())


@settings(max_examples=150, deadline=None)
@given(random_dags(), st.integers(min_value=1, max_value=3), st.booleans(), st.booleans())
def test_linear_clustering_matches_the_rescanning_oracle(
        dfg: DataflowGraph, batch: int, include_edge_cost: bool, precomputed: bool):
    graph = replicate_for_batch(dfg, batch)
    dist = compute_distance_to_end(graph, include_edge_cost) if precomputed else None
    got = linear_clustering(graph, dist, include_edge_cost)
    want = reference_linear_clustering(graph, dist, include_edge_cost)
    assert clusters_of(got) == clusters_of(want)
    assert got.distance_to_end == want.distance_to_end
    assert clusters_of(merge_clusters_fixpoint(got)) == clusters_of(merge_clusters_fixpoint(want))


SHAPES = ["lc", "merged", "hyper", "switched", "folded"]


@settings(max_examples=200, deadline=None)
@given(random_dags(max_nodes=14), st.sampled_from(SHAPES), st.data())
def test_simulate_matches_the_rescanning_oracle(dfg: DataflowGraph, shape: str, data):
    clustering = linear_clustering(dfg)
    if shape != "lc":
        clustering = merge_clusters_fixpoint(clustering)
    if shape in ("hyper", "switched"):
        batch = data.draw(st.integers(min_value=2, max_value=3), label="batch")
        builder = build_hyperclusters if shape == "hyper" else build_switched_hyperclusters
        clustering = builder(clustering, batch)
    elif shape == "folded":
        workers = data.draw(st.integers(min_value=1, max_value=4), label="workers")
        clustering = fold_onto_workers(clustering, workers)
    small = st.one_of(st.sampled_from([0.0, 1.0, 4.0]),
                      st.floats(min_value=0.0, max_value=30.0, allow_nan=False))
    config = SimulationConfig(
        num_cores=data.draw(st.integers(min_value=1, max_value=8), label="num_cores"),
        message_latency=data.draw(small, label="message_latency"),
        per_cluster_overhead=data.draw(small, label="per_cluster_overhead"),
        node_scale=data.draw(st.sampled_from([1.0, 0.5, 0.65]), label="node_scale"))
    cost_provider: Optional[Dict[str, float]] = None
    if data.draw(st.booleans(), label="measured costs"):
        names = clustering.dfg.node_names()
        measured = data.draw(st.lists(st.sampled_from(names), unique=True), label="measured")
        cost_provider = {name: data.draw(small, label=name) for name in measured}
    simulator = ScheduleSimulator(config)
    assert_same_schedule(simulator.simulate(clustering, cost_provider),
                         reference_simulate(simulator, clustering, cost_provider))


@functools.lru_cache(maxsize=1)  # the two rows of a model run one after the other
def _zoo_model(name: str):
    return build_model(name)


@pytest.mark.parametrize("clone", [False, True], ids=["default", "clone"])
@pytest.mark.parametrize("name", list_models())
def test_zoo_compiles_match_the_oracles(name: str, clone: bool):
    """ramiel_compile's LC clusters, merged clusters, schedule and predicted
    speedup equal the oracles' on every compile_zoo row."""
    result = ramiel_compile(_zoo_model(name),
                            config=PipelineConfig(clone=clone, generate_code=False))
    lc = reference_linear_clustering(result.dataflow_graph)
    assert clusters_of(result.clustering_lc) == clusters_of(lc)
    merged = merge_clusters_fixpoint(lc)
    assert clusters_of(result.clustering_merged) == clusters_of(merged)
    schedule = reference_simulate(ScheduleSimulator(result.simulation), merged)
    assert_same_schedule(result.schedule, schedule)
    assert result.predicted_speedup == schedule.speedup
