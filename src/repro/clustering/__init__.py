"""Task parallelization via Linear Clustering — the paper's core contribution.

The pipeline is:

1. :func:`~repro.clustering.linear_clustering.linear_clustering`
   (Algorithm 1) — recursive critical-path-based clustering of the
   dataflow graph into linear chains.
2. :func:`~repro.clustering.merging.merge_clusters_fixpoint`
   (Algorithms 2 & 3) — iteratively merge clusters whose execution spans do
   not overlap, to avoid a proliferation of tiny clusters.
3. :func:`~repro.clustering.cloning.clone_cheap_producers` — optional,
   restricted task cloning to remove cross-cluster communication.
4. :func:`~repro.clustering.hypercluster.build_hyperclusters` /
   :func:`~repro.clustering.hypercluster.build_switched_hyperclusters` —
   interleave per-sample replicas of the clusters when the inference batch
   size is greater than one.
5. :class:`~repro.clustering.schedule.ScheduleSimulator` — deterministic
   makespan/slack simulation of a clustering on a multicore, used by the
   speedup benchmarks (Tables IV-VIII, Figs. 12-14).
6. :func:`~repro.clustering.placement.fold_onto_workers` — on the machine
   that runs: fold the clustering onto the cores it has, with the binding
   rule the simulator models (:func:`~repro.clustering.placement.bind_to_workers`).
"""

from repro.clustering.cluster import Cluster, Clustering
from repro.clustering.linear_clustering import linear_clustering
from repro.clustering.merging import merge_clusters_once, merge_clusters_fixpoint
from repro.clustering.cloning import clone_cheap_producers, CloningReport
from repro.clustering.hypercluster import (
    HyperCluster,
    build_hyperclusters,
    build_switched_hyperclusters,
    replicate_for_batch,
)
from repro.clustering.placement import bind_to_workers, fold_onto_workers
from repro.clustering.schedule import ScheduleSimulator, ScheduleResult, SimulationConfig
from repro.clustering.validation import (
    ClusteringError,
    check_partition,
    check_linear,
    check_acyclic_clusters,
)

__all__ = [
    "Cluster",
    "Clustering",
    "linear_clustering",
    "merge_clusters_once",
    "merge_clusters_fixpoint",
    "clone_cheap_producers",
    "CloningReport",
    "HyperCluster",
    "build_hyperclusters",
    "build_switched_hyperclusters",
    "replicate_for_batch",
    "bind_to_workers",
    "fold_onto_workers",
    "ScheduleSimulator",
    "ScheduleResult",
    "SimulationConfig",
    "ClusteringError",
    "check_partition",
    "check_linear",
    "check_acyclic_clusters",
]
