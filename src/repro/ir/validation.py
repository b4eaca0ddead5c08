"""Structural validation of IR graphs.

The checks here catch the mistakes that are easiest to make when building
graphs programmatically (the model zoo) or transforming them (the passes
and the cloning/clustering machinery):

* duplicate node names or duplicate value producers (SSA violation),
* references to values that nothing produces,
* graph outputs that are never produced,
* cycles in the dataflow graph,
* operator arities that violate the registered schema.
"""

from __future__ import annotations

from typing import Dict, List, Set

from repro.ir.model import Graph, Model
from repro.ir.opset import has_schema, get_schema


class ValidationError(ValueError):
    """Raised when a graph fails structural validation."""

    def __init__(self, problems: List[str]):
        self.problems = list(problems)
        super().__init__(
            "graph validation failed:\n  - " + "\n  - ".join(self.problems)
        )


def collect_problems(graph: Graph, check_schemas: bool = True) -> List[str]:
    """Return a list of human-readable problems (empty when the graph is valid)."""
    problems: List[str] = []

    # Unique node names -----------------------------------------------------
    seen_nodes: Set[str] = set()
    for node in graph.nodes:
        if node.name in seen_nodes:
            problems.append(f"duplicate node name {node.name!r}")
        seen_nodes.add(node.name)

    # Unique producers (SSA) ------------------------------------------------
    producers: Dict[str, str] = {}
    for node in graph.nodes:
        for out in node.outputs:
            if not out:
                continue
            if out in producers:
                problems.append(
                    f"value {out!r} produced by both {producers[out]!r} and {node.name!r}"
                )
            producers[out] = node.name
    for name in graph.input_names:
        if name in producers:
            problems.append(f"graph input {name!r} is also produced by node {producers[name]!r}")
    for name in graph.initializers:
        if name in producers:
            problems.append(
                f"initializer {name!r} is also produced by node {producers[name]!r}"
            )

    # Dangling references ---------------------------------------------------
    available: Set[str] = set(graph.input_names) | set(graph.initializers) | set(producers)
    reads = [node.present_inputs for node in graph.nodes]
    for node, inputs in zip(graph.nodes, reads):
        for inp in inputs:
            if inp not in available:
                problems.append(
                    f"node {node.name!r} ({node.op_type}) reads undefined value {inp!r}"
                )
    for out in graph.output_names:
        if out not in available:
            problems.append(f"graph output {out!r} is never produced")

    # Schema / arity checks -------------------------------------------------
    if check_schemas:
        for node, inputs in zip(graph.nodes, reads):
            if not has_schema(node.op_type):
                problems.append(f"node {node.name!r} uses unregistered op {node.op_type!r}")
                continue
            schema = get_schema(node.op_type)
            arity = len(inputs)
            if not schema.accepts_arity(arity):
                problems.append(
                    f"node {node.name!r} ({node.op_type}) has {arity} inputs; "
                    f"schema allows [{schema.min_inputs}, {schema.max_inputs}]"
                )

    # Acyclicity ------------------------------------------------------------
    problems.extend(_check_acyclic(graph, producers, reads))
    return problems


def _check_acyclic(graph: Graph, producers: Dict[str, str],
                   reads: List[List[str]]) -> List[str]:
    """Kahn's algorithm over each node's present inputs ``reads``; returns
    a problem entry when a cycle exists."""
    node_by_name = {n.name: n for n in graph.nodes}
    indegree: Dict[str, int] = {n.name: 0 for n in graph.nodes}
    dependents: Dict[str, List[str]] = {n.name: [] for n in graph.nodes}
    for node, inputs in zip(graph.nodes, reads):
        for inp in inputs:
            producer = producers.get(inp)
            if producer is not None and producer != node.name:
                indegree[node.name] += 1
                dependents[producer].append(node.name)
    ready = [name for name, deg in indegree.items() if deg == 0]
    visited = 0
    while ready:
        name = ready.pop()
        visited += 1
        for dep in dependents[name]:
            indegree[dep] -= 1
            if indegree[dep] == 0:
                ready.append(dep)
    if visited != len(node_by_name):
        stuck = sorted(name for name, deg in indegree.items() if deg > 0)
        return [f"graph contains a cycle involving nodes: {stuck[:8]}"]
    return []


def validate_graph(graph: Graph, check_schemas: bool = True) -> Graph:
    """Validate a graph, raising :class:`ValidationError` on any problem."""
    problems = collect_problems(graph, check_schemas=check_schemas)
    if problems:
        raise ValidationError(problems)
    return graph


def validate_model(model: Model, check_schemas: bool = True) -> Model:
    """Validate the graph inside a model."""
    validate_graph(model.graph, check_schemas=check_schemas)
    return model
