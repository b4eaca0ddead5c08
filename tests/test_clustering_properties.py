"""Property-based tests (hypothesis) for the clustering core.

Random DAGs are generated and the paper's algorithms are checked against
their structural invariants:

* the distance pass is consistent with the critical-path length,
* linear clustering is a partition into dependence-connected paths,
* cluster merging preserves the partition, never increases the cluster
  count, and never introduces ordering cycles,
* the schedule simulator's makespan is bounded below by the (node-cost)
  critical path and above by the sequential time plus overheads,
* hyperclustering preserves the per-sample structure,
* placement folds any clustering onto ``min(clusters, workers)``
  deadlock-free clusters, and the simulator binds clusters to cores with the
  same rule and the same results as before that rule was shared.
"""

from __future__ import annotations

from typing import List, Tuple

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.baselines import sequential_clustering
from repro.clustering import (
    ScheduleSimulator,
    SimulationConfig,
    build_hyperclusters,
    linear_clustering,
    merge_clusters_fixpoint,
    replicate_for_batch,
)
from repro.clustering.placement import bind_to_workers, fold_onto_workers
from repro.clustering.validation import (
    check_acyclic_clusters,
    check_linear,
    check_partition,
    validate_clustering,
)
from repro.graph import compute_distance_to_end, critical_path_length
from repro.graph.dataflow import DataflowGraph, model_to_dataflow
from repro.graph.traversal import topological_sort
from repro.models import build_model
from repro.passes import optimize_model
from tests.conftest import random_dags


@settings(max_examples=60, deadline=None)
@given(random_dags())
def test_distance_pass_consistency(dfg: DataflowGraph):
    """distance_to_end of every node is >= its own cost and the max over
    sources equals the critical-path length."""
    if len(dfg) == 0:
        return
    dist = compute_distance_to_end(dfg)
    for node in dfg.nodes():
        assert dist[node.name] >= node.cost - 1e-9
        for succ in dfg.successors(node.name):
            assert dist[node.name] >= dist[succ] + node.cost - 1e-9
    sources = dfg.source_nodes() or dfg.node_names()
    assert max(dist[s] for s in sources) == critical_path_length(dfg)


@settings(max_examples=60, deadline=None)
@given(random_dags())
def test_linear_clustering_invariants(dfg: DataflowGraph):
    """LC output is a partition of the graph into dependence-linear paths."""
    clustering = linear_clustering(dfg)
    check_partition(clustering)
    check_linear(clustering)
    check_acyclic_clusters(clustering)
    assert clustering.num_clusters <= max(len(dfg), 1)


@settings(max_examples=60, deadline=None)
@given(random_dags())
def test_merging_invariants(dfg: DataflowGraph):
    """Merging keeps the partition, never grows the cluster count and stays acyclic."""
    lc = linear_clustering(dfg)
    merged = merge_clusters_fixpoint(lc)
    check_partition(merged)
    check_acyclic_clusters(merged)
    assert merged.num_clusters <= lc.num_clusters
    # Fixpoint: running the pass again changes nothing.
    again = merge_clusters_fixpoint(merged)
    assert again.num_clusters == merged.num_clusters


@settings(max_examples=40, deadline=None)
@given(random_dags(), st.integers(min_value=1, max_value=8),
       st.floats(min_value=0.0, max_value=5.0, allow_nan=False))
def test_schedule_bounds(dfg: DataflowGraph, num_cores: int, latency: float):
    """Makespan lies between the node-cost critical path and sequential time + overheads."""
    if len(dfg) == 0:
        return
    clustering = merge_clusters_fixpoint(linear_clustering(dfg))
    config = SimulationConfig(num_cores=num_cores, message_latency=latency,
                              per_cluster_overhead=0.0)
    result = ScheduleSimulator(config).simulate(clustering)
    cp_nodes_only = max(compute_distance_to_end(dfg, include_edge_cost=False).values())
    assert result.makespan >= cp_nodes_only - 1e-6
    upper = result.sequential_time + latency * result.num_messages + 1e-6
    assert result.makespan <= upper
    assert result.speedup <= num_cores + 1e-6 or result.sequential_time == 0


@settings(max_examples=40, deadline=None)
@given(random_dags(max_nodes=12), st.integers(min_value=2, max_value=4))
def test_hypercluster_invariants(dfg: DataflowGraph, batch: int):
    """Batch replication and hyperclustering preserve structure per sample."""
    if len(dfg) == 0:
        return
    merged = merge_clusters_fixpoint(linear_clustering(dfg))
    batched = replicate_for_batch(dfg, batch)
    assert len(batched) == batch * len(dfg)
    hc = build_hyperclusters(merged, batch)
    check_partition(hc)
    check_acyclic_clusters(hc)
    assert hc.num_clusters == merged.num_clusters
    # total cost scales with the batch size (floating-point tolerant)
    total_hc = sum(c.cost(batched) for c in hc.clusters)
    total_base = sum(c.cost(dfg) for c in merged.clusters)
    assert abs(total_hc - total_base * batch) <= 1e-6 * max(total_hc, 1.0)


@settings(max_examples=40, deadline=None)
@given(random_dags())
def test_sequential_clustering_is_topological(dfg: DataflowGraph):
    """The sequential baseline lists nodes in a valid topological order."""
    if len(dfg) == 0:
        return
    clustering = sequential_clustering(dfg)
    order = clustering.clusters[0].nodes
    position = {n: i for i, n in enumerate(order)}
    for edge in dfg.edges():
        assert position[edge.src] < position[edge.dst]
    assert sorted(order) == sorted(topological_sort(dfg))


@settings(max_examples=60, deadline=None)
@given(random_dags(), st.integers(min_value=1, max_value=8), st.booleans())
def test_placement_fold_invariants(dfg: DataflowGraph, workers: int, merge: bool):
    """Folding onto k workers gives min(clusters, k) non-empty clusters
    (fewer only where zero-cost clusters leave a worker empty) over the same
    nodes, each in an order that respects every dataflow edge, and the fold
    can be scheduled without a circular wait."""
    clustering = linear_clustering(dfg)
    if merge:
        clustering = merge_clusters_fixpoint(clustering)
    folded = fold_onto_workers(clustering, workers)
    if workers >= clustering.num_clusters:
        assert folded is clustering
        return
    # each worker the binding uses holds whole clusters of the input
    binding = bind_to_workers(clustering, workers)
    assert folded.num_clusters == len(set(binding.values())) <= workers
    if all(cost > 0 for cost in clustering.cluster_costs().values()):
        assert folded.num_clusters == workers
    assert [c.cluster_id for c in folded.clusters] == list(range(folded.num_clusters))
    assert all(len(c) > 0 for c in folded.clusters)
    validate_clustering(folded)  # partition of the same nodes + acyclic
    worker_of = {}
    for cluster in clustering.clusters:
        owners = {folded.owner_of(n) for n in cluster.nodes}
        assert len(owners) == 1
        assert worker_of.setdefault(binding[cluster.cluster_id], owners) == owners
    for cluster in folded.clusters:
        position = {n: i for i, n in enumerate(cluster.nodes)}
        for edge in dfg.edges():
            if edge.src in position and edge.dst in position:
                assert position[edge.src] < position[edge.dst]
    # terminates (a circular wait raises)
    result = ScheduleSimulator(SimulationConfig(num_cores=workers)).simulate(folded)
    assert result.num_cores_used <= folded.num_clusters
    assert len(result.node_finish) == len(dfg)


def test_fold_gives_no_cluster_to_a_worker_the_binding_leaves_empty():
    """Zero-cost clusters never raise a worker's load, so least-loaded-first
    piles them onto one worker; the fold starts nothing for the others."""
    dfg = DataflowGraph("free")
    for i in range(5):
        dfg.add_node(f"n{i}", "Generic", cost=4.0 if i == 0 else 0.0)
    clustering = linear_clustering(dfg)
    assert clustering.num_clusters == 5
    for workers in (2, 3, 4):
        folded = fold_onto_workers(clustering, workers)
        assert folded.sizes() == [1, 4]
        assert [c.cluster_id for c in folded.clusters] == [0, 1]
        validate_clustering(folded)


#: makespan, cores used and messages of ``simulate(merged clustering of the
#: pruned small model, num_cores=k)`` as returned before ``simulate`` shared
#: its binding loop with the runtime's placement
_PINNED_SIMULATIONS = {
    ("nasnet", 1): (392.0, 1, 72), ("nasnet", 2): (248.5, 2, 72),
    ("nasnet", 4): (171.0, 4, 72), ("nasnet", 12): (159.5, 8, 72),
    ("inception_v3", 1): (716.0, 1, 70), ("inception_v3", 2): (478.0, 2, 70),
    ("inception_v3", 4): (436.0, 4, 70), ("inception_v3", 12): (433.0, 6, 70),
    ("retinanet", 1): (498.5, 1, 29), ("retinanet", 2): (442.5, 2, 29),
    ("retinanet", 4): (354.5, 4, 29), ("retinanet", 12): (310.5, 10, 29),
}


@pytest.mark.parametrize("name", ["nasnet", "inception_v3", "retinanet"])
def test_simulator_binding_is_unchanged_on_zoo_models(name: str):
    model, _ = optimize_model(build_model(name, variant="small"))
    merged = merge_clusters_fixpoint(linear_clustering(model_to_dataflow(model)))
    for (pinned, cores), expected in _PINNED_SIMULATIONS.items():
        if pinned != name:
            continue
        result = ScheduleSimulator(SimulationConfig(num_cores=cores)).simulate(merged)
        assert (result.makespan, result.num_cores_used, result.num_messages) == expected
