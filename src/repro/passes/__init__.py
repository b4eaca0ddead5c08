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

Folding leaves batch-1 literals behind, so the kept nodes are then made to
follow a fused batch (:func:`_follow_batch`): a reshape target that keeps
axis 0 copies it, and a 2-D product records its row count.
:func:`follow_batch` applies that step alone, to a model left unpruned.

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


def _follow_batch(node: OpNode, ctx: SweepContext, initializers: dict,
                  readers: collections.Counter) -> OpNode:
    """``node``, rewritten so that a fused batch on axis 0 passes through it.

    Folding leaves batch-1 literals behind.  A ``Reshape`` whose constant
    target keeps its input's axis 0 gets ``0`` ("copy the input dim") there
    instead: the same node at the compiled shapes, and at batch N axis 0
    stays N.  A target that folds the batch into another axis — or one
    held in a tensor that other nodes read too — is left as it is.  A 2-D
    ``MatMul`` / ``Gemm`` records its row count as ``sample_rows``, so a
    fused batch runs as one product of the compiled shape per sample
    (:mod:`repro.runtime.ops.linear`).  A rewritten node, and a rewritten
    target tensor in ``initializers``, are copies.
    """
    if node.op_type in ("MatMul", "Gemm"):
        a, b = ctx.shape(node.inputs[0]), ctx.shape(node.inputs[1])
        if a is None or b is None or len(a) != 2 or len(b) != 2:
            return node
        rows = a[1] if node.get_attr("transA") else a[0]
        if rows is None:
            return node
        node = node.copy()
        node.set_attr("sample_rows", int(rows))
        return node
    if node.op_type != "Reshape":
        return node
    x = ctx.shape(node.inputs[0])
    batch = x[0] if x else None
    attr = node.get_attr("shape")
    tensor = node.inputs[1] if len(node.inputs) > 1 else ""
    if tensor and (tensor not in initializers or readers[tensor] != 1):
        return node
    targets = [t for t in (attr, initializers.get(tensor)) if t is not None]
    if batch is None or not targets or any(
            np.ndim(t) != 1 or len(t) == 0 or int(t[0]) != batch for t in targets):
        return node
    node = node.copy()
    if attr is not None:
        node.set_attr("shape", [0, *list(attr)[1:]])
    if tensor:
        target = np.array(initializers[tensor])
        target[0] = 0
        initializers[tensor] = target
    return node


def optimize_model(model: Model) -> Tuple[Model, dict]:
    """Apply the paper's CP + DCE pruning recipe to a model.

    Returns ``(optimized_model, stats)`` where ``stats`` summarizes the node
    reduction (used by the Table III benchmark) and counts the removed
    nodes by cause.  The kept nodes follow a fused batch
    (:func:`_follow_batch`).  The input model is not modified; the result
    shares its weight arrays.
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
    readers = collections.Counter(name for node in nodes for name in node.inputs if name)
    nodes = [_follow_batch(node, ctx, initializers, readers) for node in nodes]
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


def follow_batch(model: Model) -> Model:
    """``model``, unpruned, with its nodes made to follow a fused batch
    (:func:`_follow_batch`) — what :func:`optimize_model` does to the nodes
    it keeps, for a compile that skips pruning.  The input model is not
    modified; the result shares its weight arrays.
    """
    graph = model.graph
    ctx, _ = forward_sweep(graph)
    initializers = dict(graph.initializers)
    readers = collections.Counter(name for node in graph.nodes for name in node.present_inputs)
    nodes = [_follow_batch(node, ctx, initializers, readers) for node in graph.nodes]
    return model.with_graph(Graph(
        name=graph.name,
        nodes=nodes,
        inputs=list(graph.inputs),
        outputs=list(graph.outputs),
        initializers=initializers,
        value_info=dict(graph.value_info),
    ))


__all__ = ["follow_batch", "forward_sweep", "optimize_model"]
