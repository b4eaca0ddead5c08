"""The ``distance_to_end`` pass and critical-path extraction.

The paper's *Distance pass* "computes the weighted distance of each node
from the end node of the graph and stores [it] in ``distance_to_end``".
That quantity is the length of the longest (node-cost + edge-cost) weighted
path from a node to any sink, *including* the node's own cost.  The
critical path of the graph is then the maximal-distance path starting from
a source node, and its length is the denominator of the potential
parallelism factor of Table I.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.graph.dataflow import DataflowGraph
from repro.graph.traversal import topological_sort


def compute_distance_to_end(
    dfg: DataflowGraph,
    include_edge_cost: bool = True,
) -> Dict[str, float]:
    """Longest weighted distance from each node to any sink node.

    ``distance_to_end(n)`` includes ``cost(n)`` itself, plus for each hop the
    edge cost (unit by default per the paper) and the downstream node costs.
    Computed in reverse topological order in O(V + E).
    """
    order = topological_sort(dfg)
    dist: Dict[str, float] = {}
    for name in reversed(order):
        node = dfg.node(name)
        best_tail = 0.0
        for edge in dfg.out_edges(name):
            tail = dist[edge.dst]
            if include_edge_cost:
                tail += edge.cost
            best_tail = max(best_tail, tail)
        dist[name] = node.cost + best_tail
    return dist


def compute_distance_from_start(
    dfg: DataflowGraph,
    include_edge_cost: bool = True,
) -> Dict[str, float]:
    """Longest weighted distance from any source node up to (and including) each node."""
    order = topological_sort(dfg)
    dist: Dict[str, float] = {}
    for name in order:
        node = dfg.node(name)
        best_head = 0.0
        for edge in dfg.in_edges(name):
            head = dist[edge.src]
            if include_edge_cost:
                head += edge.cost
            best_head = max(best_head, head)
        dist[name] = node.cost + best_head
    return dist


def critical_path(
    dfg: DataflowGraph,
    distance_to_end: Optional[Dict[str, float]] = None,
    include_edge_cost: bool = True,
) -> List[str]:
    """Extract one critical path (list of node names from a source to a sink).

    Starting from the source node with the largest ``distance_to_end``,
    repeatedly steps to the successor with the largest ``distance_to_end``.
    Ties are broken by node insertion index, making the result deterministic.
    """
    if len(dfg) == 0:
        return []
    dist = distance_to_end or compute_distance_to_end(dfg, include_edge_cost)

    def sort_key(name: str) -> Tuple[float, int]:
        # Larger distance first; then smaller insertion index.
        return (-dist[name], dfg.node(name).index)

    sources = dfg.source_nodes()
    current = min(sources, key=sort_key) if sources else min(dfg.node_names(), key=sort_key)
    path = [current]
    while dfg.out_degree(current) > 0:
        nxt = min(dfg.successors(current), key=sort_key)
        path.append(nxt)
        current = nxt
    return path


def critical_path_length(
    dfg: DataflowGraph,
    include_edge_cost: bool = True,
    distance_to_end: Optional[Dict[str, float]] = None,
) -> float:
    """Weighted length of the critical path (the paper's ``Wt. CP``).

    Equal to the maximum ``distance_to_end`` over all source nodes, i.e. the
    sum of node costs along the critical path plus one edge cost per hop.
    """
    if len(dfg) == 0:
        return 0.0
    dist = distance_to_end or compute_distance_to_end(dfg, include_edge_cost)
    sources = dfg.source_nodes()
    candidates = sources if sources else dfg.node_names()
    return max(dist[name] for name in candidates)


def path_cost(dfg: DataflowGraph, path: List[str], include_edge_cost: bool = True) -> float:
    """Weighted cost of an explicit path (node costs + per-hop edge costs)."""
    total = sum(dfg.node(name).cost for name in path)
    if include_edge_cost:
        for src, dst in zip(path, path[1:]):
            for edge in dfg.out_edges(src):
                if edge.dst == dst:
                    total += edge.cost
                    break
    return float(total)
