"""Topological traversal utilities for IR graphs and dataflow graphs."""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, List, Sequence, Set, TYPE_CHECKING

from repro.ir.model import Graph
from repro.ir.node import OpNode

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.graph.dataflow import DataflowGraph


class CycleError(RuntimeError):
    """Raised when a supposedly acyclic graph contains a cycle."""


def topological_sort_nodes(graph: Graph) -> List[OpNode]:
    """Topologically sort the operator nodes of an IR graph.

    Deterministic: among ready nodes, original node order wins (stable
    Kahn's algorithm).  Raises :class:`CycleError` if the graph is cyclic.
    """
    producers = graph.producers()
    order_index = {node.name: i for i, node in enumerate(graph.nodes)}
    indegree: Dict[str, int] = {node.name: 0 for node in graph.nodes}
    dependents: Dict[str, List[str]] = {node.name: [] for node in graph.nodes}
    node_by_name = {node.name: node for node in graph.nodes}

    for node in graph.nodes:
        preds: Set[str] = set()
        for inp in node.present_inputs:
            producer = producers.get(inp)
            if producer is not None and producer.name != node.name:
                preds.add(producer.name)
        indegree[node.name] = len(preds)
        for p in preds:
            dependents[p].append(node.name)

    ready = sorted((name for name, deg in indegree.items() if deg == 0),
                   key=order_index.__getitem__)
    queue = deque(ready)
    result: List[OpNode] = []
    while queue:
        name = queue.popleft()
        result.append(node_by_name[name])
        newly_ready = []
        for dep in dependents[name]:
            indegree[dep] -= 1
            if indegree[dep] == 0:
                newly_ready.append(dep)
        for dep in sorted(newly_ready, key=order_index.__getitem__):
            queue.append(dep)
    if len(result) != len(graph.nodes):
        raise CycleError(f"IR graph {graph.name!r} contains a cycle")
    return result


def topological_sort(dfg: "DataflowGraph") -> List[str]:
    """Topologically sort a dataflow graph; returns node names.

    Deterministic: ties broken by node insertion index.
    """
    indegree = {name: dfg.in_degree(name) for name in dfg.node_names()}
    index = {name: dfg.node(name).index for name in dfg.node_names()}
    ready = sorted((n for n, d in indegree.items() if d == 0), key=index.__getitem__)
    queue = deque(ready)
    order: List[str] = []
    while queue:
        name = queue.popleft()
        order.append(name)
        newly_ready = []
        for succ in dfg.successors(name):
            indegree[succ] -= 1
            if indegree[succ] == 0:
                newly_ready.append(succ)
        for succ in sorted(newly_ready, key=index.__getitem__):
            queue.append(succ)
    if len(order) != len(dfg):
        raise CycleError(f"dataflow graph {dfg.name!r} contains a cycle")
    return order


def descendants(dfg: "DataflowGraph", name: str) -> Set[str]:
    """All transitive successors of a node (excluding the node itself)."""
    seen: Set[str] = set()
    stack = list(dfg.successors(name))
    while stack:
        current = stack.pop()
        if current in seen:
            continue
        seen.add(current)
        stack.extend(dfg.successors(current))
    return seen


def graph_levels(dfg: "DataflowGraph") -> Dict[str, int]:
    """ASAP level of every node (longest hop-distance from any source)."""
    levels: Dict[str, int] = {}
    for name in topological_sort(dfg):
        preds = dfg.predecessors(name)
        levels[name] = 0 if not preds else 1 + max(levels[p] for p in preds)
    return levels


def reaches(dfg: "DataflowGraph", targets: Iterable[str]) -> Set[str]:
    """All nodes from which any of ``targets`` is reachable (inclusive)."""
    seen: Set[str] = set()
    stack = list(targets)
    while stack:
        current = stack.pop()
        if current in seen:
            continue
        seen.add(current)
        stack.extend(dfg.predecessors(current))
    return seen
