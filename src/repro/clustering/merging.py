"""Cluster merging (Algorithms 2 and 3).

Linear clustering leaves behind many small clusters because zeroing out the
critical path disconnects the remainder graph.  The merging pass combines
pairs of clusters whose execution spans do not overlap — cluster spans are
expressed in ``distance_to_end`` coordinates, so cluster ``cl1`` ends before
``cl2`` begins when ``sSpan(cl1) < eSpan(cl2)`` (distances shrink as
execution progresses towards the sinks).  Algorithm 2 performs one merging
sweep; Algorithm 3 repeats it until a fixpoint.

Beyond the paper's pseudocode we add one safety check: a merge is rejected
when it would create a cyclic wait between the merged cluster and any other
cluster (possible in rare tie situations because span disjointness is a
necessary but not sufficient condition for schedulability).  This keeps the
generated message-passing code deadlock-free by construction.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.clustering.cluster import Cluster, Clustering
from repro.graph.dataflow import DataflowGraph


def _merge_pair(cl1: Cluster, cl2: Cluster, dist: Dict[str, float],
                new_id: int) -> Cluster:
    """Concatenate two span-disjoint clusters in execution order."""
    # The cluster whose span starts earlier (larger distance) executes first.
    if cl1.start_span(dist) >= cl2.start_span(dist):
        first, second = cl1, cl2
    else:
        first, second = cl2, cl1
    return Cluster(new_id, list(first.nodes) + list(second.nodes))


def _would_create_cycle(
    dfg: DataflowGraph,
    owner: Dict[str, int],
    merged_ids: Tuple[int, int],
    new_id: int,
) -> bool:
    """Check whether merging two clusters creates a cycle in the cluster DAG."""
    relabel = {merged_ids[0]: new_id, merged_ids[1]: new_id}

    def cluster_of(node: str) -> int:
        cid = owner[node]
        return relabel.get(cid, cid)

    # Build the cluster-level dependence graph and run a DFS cycle check.
    edges: Set[Tuple[int, int]] = set()
    for edge in dfg.edges():
        a, b = cluster_of(edge.src), cluster_of(edge.dst)
        if a != b:
            edges.add((a, b))
    adjacency: Dict[int, List[int]] = {}
    for a, b in edges:
        adjacency.setdefault(a, []).append(b)

    visited: Dict[int, int] = {}  # 0 = in progress, 1 = done

    def dfs(node: int) -> bool:
        visited[node] = 0
        for nxt in adjacency.get(node, ()):  # pragma: no branch
            state = visited.get(nxt)
            if state == 0:
                return True
            if state is None and dfs(nxt):
                return True
        visited[node] = 1
        return False

    all_ids = {cluster_of(n) for n in owner}
    return any(dfs(cid) for cid in all_ids if cid not in visited)


def merge_clusters_once(
    clustering: Clustering,
    check_cycles: bool = False,
) -> Tuple[Clustering, bool]:
    """One sweep of Algorithm 2.

    Returns ``(new_clustering, merge_done)`` where ``merge_done`` indicates
    whether at least one pair was merged during the sweep.
    """
    clusters = clustering.clusters
    dist = clustering.distance_to_end
    dfg = clustering.dfg
    owner = clustering.assignment()

    merged: List[Cluster] = []
    skip: Set[int] = set()
    merge_done = False
    next_id = 0

    for i, cl1 in enumerate(clusters):
        if cl1.cluster_id in skip:
            continue
        merged_this = False
        s1, e1 = cl1.start_span(dist), cl1.end_span(dist)
        for cl2 in clusters:
            if cl2.cluster_id == cl1.cluster_id:
                continue
            if cl1.cluster_id in skip or cl2.cluster_id in skip:
                continue
            s2, e2 = cl2.start_span(dist), cl2.end_span(dist)
            # Spans do not overlap when one cluster finishes (reaches a
            # smaller distance) before the other starts.
            if s1 < e2 or s2 < e1:
                candidate = _merge_pair(cl1, cl2, dist, next_id)
                if check_cycles and _would_create_cycle(
                        dfg, owner, (cl1.cluster_id, cl2.cluster_id), -1 - next_id):
                    continue
                merged.append(candidate)
                skip.add(cl1.cluster_id)
                skip.add(cl2.cluster_id)
                next_id += 1
                merge_done = True
                merged_this = True
                break
        if not merged_this and cl1.cluster_id not in skip:
            merged.append(Cluster(next_id, list(cl1.nodes)))
            next_id += 1

    new_clustering = Clustering(dfg=dfg, clusters=merged, distance_to_end=dist)
    return new_clustering, merge_done


#: Safety bound on merge rounds (every round that merges shrinks the clustering).
_MAX_MERGE_ROUNDS = 64


def merge_clusters_fixpoint(clustering: Clustering, check_cycles: bool = False) -> Clustering:
    """Algorithm 3: repeat :func:`merge_clusters_once` until nothing merges.

    ``check_cycles`` is off by default: when the distance pass charges a
    positive cost per edge, span-disjoint merges provably cannot introduce
    node-level ordering cycles (distances strictly decrease along every
    dependence edge), so the extra check is redundant.  It can be enabled
    for experiments with zero edge costs.
    """
    current = clustering
    for _ in range(_MAX_MERGE_ROUNDS):
        current, merge_done = merge_clusters_once(current, check_cycles=check_cycles)
        if not merge_done:
            break
    return current.renumbered()
