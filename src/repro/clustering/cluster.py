"""Cluster data structures.

A :class:`Cluster` is an ordered list of dataflow-graph node names that
will execute sequentially on one core.  The order is execution order:
Algorithm 1 produces clusters ordered along a (pseudo) critical path, i.e.
by decreasing ``distance_to_end``; merging concatenates non-overlapping
clusters preserving that order.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterable, List, Optional, Sequence, Set

from repro.graph.dataflow import DataflowGraph


@dataclasses.dataclass
class Cluster:
    """An ordered set of tasks assigned to one core."""

    cluster_id: int
    nodes: List[str] = dataclasses.field(default_factory=list)

    def __post_init__(self) -> None:
        # Clusters are built whole (by Algorithm 1, by merging, by
        # placement) and never edited afterwards.
        self._members = frozenset(self.nodes)

    def __len__(self) -> int:
        return len(self.nodes)

    def __iter__(self):
        return iter(self.nodes)

    def __contains__(self, name: str) -> bool:
        return name in self._members

    @property
    def entry_node(self) -> str:
        """First node in execution order (largest distance to end)."""
        if not self.nodes:
            raise ValueError(f"cluster {self.cluster_id} is empty")
        return self.nodes[0]

    @property
    def exit_node(self) -> str:
        """Last node in execution order (smallest distance to end)."""
        if not self.nodes:
            raise ValueError(f"cluster {self.cluster_id} is empty")
        return self.nodes[-1]

    def cost(self, dfg: DataflowGraph) -> float:
        """Total static cost of the cluster's nodes."""
        return float(sum(dfg.node(n).cost for n in self.nodes))

    def start_span(self, distance_to_end: Dict[str, float]) -> float:
        """The paper's ``sSpan``: distance-to-end of the entry node."""
        return distance_to_end[self.entry_node]

    def end_span(self, distance_to_end: Dict[str, float]) -> float:
        """The paper's ``eSpan``: distance-to-end of the exit node."""
        return distance_to_end[self.exit_node]

    def copy(self, cluster_id: Optional[int] = None) -> "Cluster":
        """Copy of this cluster (optionally renumbered)."""
        return Cluster(cluster_id if cluster_id is not None else self.cluster_id,
                       list(self.nodes))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        preview = ", ".join(self.nodes[:3]) + ("…" if len(self.nodes) > 3 else "")
        return f"Cluster(C{self.cluster_id}, {len(self.nodes)} nodes: {preview})"


@dataclasses.dataclass
class Clustering:
    """A full clustering of a dataflow graph plus the analysis it was built from."""

    dfg: DataflowGraph
    clusters: List[Cluster]
    distance_to_end: Dict[str, float]

    def __post_init__(self) -> None:
        self._owner: Dict[str, int] = {}
        self._by_id: Dict[int, Cluster] = {}
        for cluster in self.clusters:
            self._by_id.setdefault(cluster.cluster_id, cluster)
            for node in cluster.nodes:
                self._owner[node] = cluster.cluster_id

    # ------------------------------------------------------------------
    @property
    def num_clusters(self) -> int:
        """Number of clusters."""
        return len(self.clusters)

    def owner_of(self, node_name: str) -> int:
        """Cluster id that owns a node."""
        return self._owner[node_name]

    def cluster_by_id(self, cluster_id: int) -> Cluster:
        """Look up a cluster by id."""
        try:
            return self._by_id[cluster_id]
        except KeyError:
            raise KeyError(f"no cluster with id {cluster_id}") from None

    def cluster_of(self, node_name: str) -> Cluster:
        """The cluster owning a node."""
        return self.cluster_by_id(self.owner_of(node_name))

    def assignment(self) -> Dict[str, int]:
        """Node-name -> cluster-id mapping (used by DOT export and codegen)."""
        return dict(self._owner)

    def cross_cluster_edges(self) -> List:
        """Dataflow edges whose endpoints live in different clusters.

        These are exactly the tensor dependences that become ``queue.put`` /
        ``queue.get`` pairs in the generated parallel code.
        """
        return [e for e in self.dfg.edges()
                if self._owner.get(e.src) != self._owner.get(e.dst)]

    def cluster_costs(self) -> Dict[int, float]:
        """Static cost per cluster id."""
        return {c.cluster_id: c.cost(self.dfg) for c in self.clusters}

    def sizes(self) -> List[int]:
        """Cluster sizes in cluster order."""
        return [len(c) for c in self.clusters]

    def renumbered(self) -> "Clustering":
        """Return a copy with cluster ids renumbered 0..k-1 in list order."""
        new_clusters = [c.copy(cluster_id=i) for i, c in enumerate(self.clusters)]
        return Clustering(self.dfg, new_clusters, dict(self.distance_to_end))

    def summary(self) -> dict:
        """Compact summary dict used in reports and logs."""
        costs = self.cluster_costs()
        return {
            "model": self.dfg.name,
            "num_clusters": self.num_clusters,
            "cluster_sizes": self.sizes(),
            "max_cluster_cost": max(costs.values()) if costs else 0.0,
            "cross_cluster_edges": len(self.cross_cluster_edges()),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Clustering({self.dfg.name!r}, clusters={self.num_clusters})"
