"""Graph pruning: one forward sweep and one backward sweep.

The paper leverages onnxruntime to perform constant propagation and
dead-code elimination before clustering (Section III-C): "If the Cluster
Merging Pass is viewed as a Vertical branch compression strategy, then
constant propagation is a Horizontal branch reduction strategy."
:func:`optimize_model` does the same directly on the IR, in two walks:

* :func:`forward_sweep` visits the nodes once in topological order.  Per
  value it knows either a constant array or a ``(shape, dtype)``
  (:class:`~repro.ir.shape_inference.SweepContext`), and per node it reads
  the inputs through an alias map, aliases away ``Identity`` /
  inference-mode ``Dropout`` / all-zero ``Pad``, turns ``Shape`` of a
  statically shaped value into a constant, evaluates the node with the
  numpy runtime when every input is constant, and otherwise applies the
  node's shape function.
* a backward liveness walk keeps the nodes a graph output needs, in their
  original order, and turns the constants they still read into
  initializers; everything else — dead branches, unreferenced weights —
  is dropped.

No fixpoint iteration is needed: on a DAG each of these analyses only feeds
the others *forwards* (a folded ``Gather`` gives a ``Reshape`` its static
shape, whose ``Shape`` becomes a constant, which folds the next
``Gather``...), so by the time the sweep reaches a node everything that
could ever be known about its inputs already is — at any depth of such a
chain.  Deadness flows the other way, which is the second walk.  This is
exactly the effect Fig. 6 shows for YOLO's grid generation, BERT's
head-split bookkeeping and NASNet's path-dropout masks.
"""

from __future__ import annotations

import collections
from typing import List, Optional, Tuple

import numpy as np

from repro.graph.traversal import topological_sort_nodes
from repro.ir.model import Graph, Model
from repro.ir.node import OpNode
from repro.ir.opset import bind
from repro.ir.shape_inference import SweepContext
from repro.ir.tensor import is_static
from repro.ir.validation import validate_graph

#: Ops that must never be folded even if their inputs are constant, because
#: their output size could explode (materializing huge constants) or their
#: value is intentionally runtime-dependent.
_FOLD_BLOCKLIST = {"ConstantOfShape", "Expand", "Tile"}

#: Maximum number of elements a folded constant may have.  Anything larger
#: is left in the graph to avoid ballooning the model size.
_MAX_FOLDED_ELEMENTS = 1 << 22

#: The causes (of the four ``stats["per_pass"]`` counts: ``identity``, ``shape``,
#: ``folded``, ``dead``) that mean the node's outputs are compile-time
#: constants — read off a static shape, or evaluated.
_CONSTANT_CAUSES = ("shape", "folded")


def _is_passthrough(ctx: SweepContext, node: OpNode) -> bool:
    """Identity, inference-mode Dropout, or a Pad that pads nothing."""
    if node.op_type != "Pad":
        return node.op_type in ("Identity", "Dropout")
    pads = node.get_attr("pads")
    if pads is None and len(node.inputs) > 1:
        pads = ctx.constant(node.inputs[1])
    return pads is not None and not np.any(pads)


def _is_foldable(ctx: SweepContext, node: OpNode) -> bool:
    if node.op_type in _FOLD_BLOCKLIST:
        return False
    inputs = node.present_inputs
    if not inputs and node.op_type != "Constant":
        return False
    return all(name in ctx.constants for name in inputs)


def _evaluate(ctx: SweepContext, node: OpNode) -> Optional[str]:
    """Record ``node``'s outputs as constants when they are; returns the cause."""
    if node.op_type == "Shape" and is_static(ctx.shape(node.inputs[0])):
        # The shape of an activation is static whenever the sweep resolved
        # it — the value itself need not be constant.
        values, cause = [np.asarray(ctx.shape(node.inputs[0]), dtype=np.int64)], "shape"
    elif _is_foldable(ctx, node):
        try:
            bound = bind(node)
            values = bound.call([ctx.constants[name] for name in node.present_inputs])
        except Exception:  # noqa: BLE001 - folding is best-effort (unregistered op, kernel error)
            return None
        values = [np.asarray(v) for v in (values if bound.multi else [values])]
        if any(v.size > _MAX_FOLDED_ELEMENTS for v in values):
            return None
        cause = "folded"
    else:
        return None
    for name, value in zip(node.outputs, values):
        if name:
            ctx.set_constant(name, value)
    return cause


def forward_sweep(graph: Graph) -> Tuple[SweepContext, List[Tuple[OpNode, Optional[str]]]]:
    """Walk ``graph`` once in topological order, deciding what each node is.

    Returns the sweep's value knowledge and, in topological order, every
    node as the pruned graph would hold it (a copy when an input was
    re-pointed past an aliased node; ``graph``'s own nodes are never
    mutated) with the cause that makes it removable, or ``None``.
    """
    ctx = SweepContext(graph)
    graph_outputs = set(graph.output_names)
    alias = {}
    visited = []
    for node in topological_sort_nodes(graph):
        if any(name in alias for name in node.inputs):
            node = node.copy()
            node.inputs = [alias.get(name, name) for name in node.inputs]
        # An aliased value changes name, which a graph output must not.
        if _is_passthrough(ctx, node) and graph_outputs.isdisjoint(node.outputs):
            alias[node.outputs[0]] = node.inputs[0]
            cause = "identity"
        else:
            cause = _evaluate(ctx, node)
        if cause not in _CONSTANT_CAUSES:
            ctx.annotate(node)
        visited.append((node, cause))
    return ctx, visited


def optimize_model(model: Model) -> Tuple[Model, dict]:
    """Apply the paper's CP + DCE pruning recipe to a model.

    Returns ``(optimized_model, stats)`` where ``stats`` summarizes the node
    reduction (used by the Table III benchmark) and counts the removed
    nodes by cause.  The input model is not modified; the result shares
    its weight arrays.
    """
    graph = model.graph
    ctx, visited = forward_sweep(graph)
    graph_outputs = set(graph.output_names)
    needed = set(graph_outputs)
    kept = {}
    removed = collections.Counter()
    for node, cause in reversed(visited):
        live = not needed.isdisjoint(node.outputs)
        # A constant node is replaced by initializers — unless it names a
        # graph output, which must keep being produced by a node.
        if live and (cause not in _CONSTANT_CAUSES
                     or not graph_outputs.isdisjoint(node.outputs)):
            kept[node.name] = node
            needed.update(node.present_inputs)
        else:
            removed[cause or "dead"] += 1
    nodes = [kept[node.name] for node in graph.nodes if node.name in kept]
    produced = dict.fromkeys(out for node in nodes for out in node.outputs if out)
    # ``ctx.constants`` holds the original weights (the same arrays) first,
    # then every folded value in topological order.
    initializers = {name: array for name, array in ctx.constants.items()
                    if name in needed and name not in produced}
    pruned = Graph(
        name=graph.name,
        nodes=nodes,
        inputs=list(graph.inputs),
        outputs=list(graph.outputs),
        initializers=initializers,
        value_info={name: ctx.infos[name] for name in (*initializers, *produced)
                    if name in ctx.infos},
    )
    validate_graph(pruned, check_schemas=False)
    stats = {
        "nodes_before": len(graph.nodes),
        "nodes_after": len(pruned.nodes),
        "nodes_removed": len(graph.nodes) - len(pruned.nodes),
        "per_pass": dict(removed),
    }
    return model.with_graph(pruned), stats


__all__ = ["forward_sweep", "optimize_model"]
