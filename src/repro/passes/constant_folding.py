"""Constant folding: evaluate all-constant subgraphs ahead of time.

A node is foldable when every one of its (present) inputs is either a graph
initializer or the output of an already-folded node, and its operator has a
runtime handler.  The node is executed once with the numpy runtime and its
outputs become initializers; dead-code elimination then removes the node
itself (folding alone leaves it in place only if something still consumes
the original outputs — which cannot happen because we rewrite them — so the
node simply becomes dead).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

import numpy as np

from repro.ir.model import Graph
from repro.ir.opset import bind, has_schema
from repro.passes.pass_manager import GraphPass

#: Ops that must never be folded even if their inputs are constant, because
#: their output size could explode (materializing huge constants) or their
#: value is intentionally runtime-dependent.
_FOLD_BLOCKLIST = {"ConstantOfShape", "Expand", "Tile"}

#: Maximum number of elements a folded constant may have.  Anything larger
#: is left in the graph to avoid ballooning the model size.
_MAX_FOLDED_ELEMENTS = 1 << 22


def _is_foldable(node, graph: Graph, known_constants: Set[str]) -> bool:
    if node.op_type in _FOLD_BLOCKLIST:
        return False
    if not has_schema(node.op_type):
        return False
    inputs = node.present_inputs
    if not inputs and node.op_type != "Constant":
        return False
    return all(name in known_constants for name in inputs)


def fold_constants(graph: Graph, max_folded_elements: int = _MAX_FOLDED_ELEMENTS) -> int:
    """Fold all-constant nodes into initializers; returns the number folded.

    The folded nodes are *not* removed here — they become dead and are
    cleaned up by :func:`repro.passes.dead_code_elimination.eliminate_dead_code`
    (mirroring the onnxruntime split between constant folding and graph
    pruning the paper relies on).
    """
    from repro.graph.traversal import topological_sort_nodes

    known: Set[str] = set(graph.initializers)
    folded_values: Dict[str, np.ndarray] = dict(graph.initializers)
    graph_outputs = set(graph.output_names)
    folded_nodes = 0

    for node in topological_sort_nodes(graph):
        if not _is_foldable(node, graph, known):
            continue
        try:
            bound = bind(node)
            results = bound.call([folded_values[name] for name in node.present_inputs])
        except Exception:  # noqa: BLE001 - folding is best-effort
            continue
        if not bound.multi:
            results = [results]
        if any(np.asarray(r).size > max_folded_elements for r in results):
            continue
        named = [(name, value) for name, value in zip(node.outputs, results) if name]
        out_names = [name for name, _ in named]
        for name, value in named:
            value = np.asarray(value)
            folded_values[name] = value
            known.add(name)
            # Graph outputs must keep being produced by a node, so do not
            # convert them into initializers.
            if name not in graph_outputs:
                graph.add_initializer(name, value)
        if all(name in graph.initializers or name in graph_outputs for name in out_names):
            folded_nodes += 1

    if folded_nodes:
        _strip_redundant_constant_inputs(graph)
    return folded_nodes


def _strip_redundant_constant_inputs(graph: Graph) -> None:
    """After folding, nodes may read values that are now initializers.

    Nothing to rewrite — reads resolve to the initializer directly — but any
    node whose *outputs* are all initializers is now dead; DCE removes it.
    This helper only exists to keep the invariant that an initializer is
    never also produced by a live node feeding a graph output, which the
    validator would flag.
    """
    producers = graph.producers()
    doomed: List[str] = []
    for name in graph.initializers:
        producer = producers.get(name)
        if producer is not None:
            # The producing node's output is now available as an initializer;
            # the node is redundant. Mark it for removal if all its outputs
            # are initializers.
            if all((not out) or out in graph.initializers for out in producer.outputs):
                doomed.append(producer.name)
    if doomed:
        graph.remove_nodes(set(doomed))


class ConstantFoldingPass(GraphPass):
    """Pass-manager wrapper around :func:`fold_constants`."""

    name = "constant-folding"

    def __init__(self, max_folded_elements: int = _MAX_FOLDED_ELEMENTS) -> None:
        super().__init__()
        self.max_folded_elements = max_folded_elements

    def run(self, graph: Graph) -> int:
        return fold_constants(graph, self.max_folded_elements)
