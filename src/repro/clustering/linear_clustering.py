"""Recursive critical-path-based Linear Clustering (Algorithm 1).

The algorithm repeatedly extracts the longest remaining path of the graph:

1. among the *ready* nodes (no unclustered predecessor left), pick the one
   with the largest ``distance_to_end``;
2. walk greedily to the unclustered successor with the largest
   ``distance_to_end``, zeroing out the other outgoing edges of the current
   node and all other incoming edges of the chosen successor;
3. when the walk cannot continue, the collected nodes form one linear
   cluster; remove them and start again.

Ties are broken by node insertion index so the clustering is deterministic.
The per-node ``distance_to_end`` is computed once on the full graph, as in
the paper's Distance pass.

The paper states step 1 as a rescan of the remainder graph after every
extracted path.  Here the ready nodes live in a heap keyed
``(-distance_to_end, index)`` and every node counts its in-edges from
unclustered nodes: clustering a node decrements its successors' counts, and
a node whose count reaches zero is pushed when the current path ends unless
the path took it.  A walk never reaches a node already in the heap (all of
its predecessors were clustered before the path began), so the heap holds
exactly the ready, unclustered nodes.  Every node and edge is touched a
bounded number of times, so the pass costs O((V + E) log V) instead of
O(clusters * V), and yields exactly the rescanning formulation's clusters,
ids and order (``tests/test_clustering_oracles.py`` keeps that formulation
as the oracle).
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Set, Tuple

from repro.clustering.cluster import Cluster, Clustering
from repro.graph.critical_path import compute_distance_to_end
from repro.graph.dataflow import DataflowGraph
from repro.graph.traversal import CycleError


def linear_clustering(
    dfg: DataflowGraph,
    distance_to_end: Optional[Dict[str, float]] = None,
    include_edge_cost: bool = True,
) -> Clustering:
    """Cluster a dataflow graph into linear chains (Algorithm 1).

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
    names = dfg.node_names()
    # Larger distance first, then original order.
    key: Dict[str, Tuple[float, int]] = {
        n: (-dist[n], dfg.node(n).index) for n in names}
    succ = {n: dfg.successors(n) for n in names}
    waiting = {n: dfg.in_degree(n) for n in names}  # in-edges from unclustered nodes
    ready = [(key[n], n) for n in names if not waiting[n]]
    heapq.heapify(ready)
    clustered: Set[str] = set()
    clusters: List[Cluster] = []

    while ready:
        _, current = heapq.heappop(ready)
        path = [current]
        released: List[str] = []
        while True:
            clustered.add(current)
            for s in succ[current]:
                waiting[s] -= 1
                if not waiting[s]:
                    released.append(s)
            candidates = [s for s in succ[current] if s not in clustered]
            if not candidates:
                break
            current = min(candidates, key=key.__getitem__)
            path.append(current)
        clusters.append(Cluster(len(clusters), path))
        for n in released:
            if n not in clustered:
                heapq.heappush(ready, (key[n], n))

    if len(clustered) != len(names):
        raise CycleError(f"dataflow graph {dfg.name!r} contains a cycle")
    return Clustering(dfg=dfg, clusters=clusters, distance_to_end=dist)
