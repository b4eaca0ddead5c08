"""Placement: fold a clustering onto the workers a machine has.

Algorithms 2 and 3 merge only span-disjoint clusters, so they stop where the
graph's shape says to stop (nasnet 9 clusters, inception_v3 6) and cannot
reach a given worker count.  The paper runs each cluster on one core; when
there are fewer cores than clusters the remaining step is a *binding* of
clusters to cores.  :func:`bind_to_workers` is that binding — the rule the
schedule simulator has always modelled: clusters in descending static cost,
each onto the least-loaded worker so far — and :func:`fold_onto_workers`
turns it into a :class:`Clustering` with one cluster per worker, which is
what the code generator and the warm pools consume.

Inside a folded cluster the nodes are interleaved by descending
``distance_to_end``, ties by topological index.  Distances never increase
along a dependence edge, so that order is one global topological order
restricted to each worker; every worker's program is a subsequence of it and
blocking receives cannot wait in a circle — the argument
:mod:`repro.clustering.merging` makes for span-disjoint merges.
"""

from __future__ import annotations

from typing import Dict, List

from repro.clustering.cluster import Cluster, Clustering
from repro.graph.traversal import topological_sort


def bind_to_workers(clustering: Clustering, workers: int) -> Dict[int, int]:
    """Cluster id -> worker index in ``range(workers)`` (``workers >= 1``).

    Greedy least-loaded-first over the clusters in descending static cost
    (the sort is stable, so equal-cost clusters keep their list order).
    """
    costs = clustering.cluster_costs()
    load = [0.0] * workers
    binding: Dict[int, int] = {}
    for cluster in sorted(clustering.clusters, key=lambda c: -costs[c.cluster_id]):
        worker = min(range(workers), key=load.__getitem__)
        binding[cluster.cluster_id] = worker
        load[worker] += costs[cluster.cluster_id]
    return binding


def fold_onto_workers(clustering: Clustering, workers: int) -> Clustering:
    """The clustering folded onto ``min(clusters, workers)`` workers.

    Returns the input itself when there are at least as many workers as
    clusters.  Otherwise each cluster of the result holds every node of the
    clusters :func:`bind_to_workers` puts on one worker; a worker the binding
    leaves empty (only possible among zero-cost clusters, whose load never
    tells workers apart) gets no cluster.
    """
    if workers >= clustering.num_clusters:
        return clustering
    workers = max(workers, 1)
    binding = bind_to_workers(clustering, workers)
    dist = clustering.distance_to_end
    topo = {name: i for i, name in enumerate(topological_sort(clustering.dfg))}
    placed: List[List[str]] = [[] for _ in range(workers)]
    for cluster in clustering.clusters:
        placed[binding[cluster.cluster_id]].extend(cluster.nodes)
    occupied = [nodes for nodes in placed if nodes]
    return Clustering(
        dfg=clustering.dfg,
        clusters=[Cluster(i, sorted(nodes, key=lambda n: (-dist[n], topo[n])))
                  for i, nodes in enumerate(occupied)],
        distance_to_end=dist,
    )
