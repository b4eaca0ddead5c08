"""Topological traversal utilities for IR graphs and dataflow graphs."""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Set, TYPE_CHECKING

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
    nodes = graph.nodes
    producer: Dict[str, int] = {}
    for index, node in enumerate(nodes):
        for out in node.outputs:
            producer[out] = index
    indegree: List[int] = []
    #: dependents of node ``i``, in node order (so no tie needs sorting)
    dependents: List[List[int]] = [[] for _ in nodes]
    for index, node in enumerate(nodes):
        preds = {producer.get(inp) for inp in node.inputs if inp}
        preds.discard(None)
        preds.discard(index)
        indegree.append(len(preds))
        for p in preds:
            dependents[p].append(index)

    # FIFO: the loop visits what it appends, ready nodes in node order.
    queue = [index for index, degree in enumerate(indegree) if degree == 0]
    for index in queue:
        for dep in dependents[index]:
            indegree[dep] -= 1
            if indegree[dep] == 0:
                queue.append(dep)
    if len(queue) != len(nodes):
        raise CycleError(f"IR graph {graph.name!r} contains a cycle")
    return [nodes[index] for index in queue]


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

