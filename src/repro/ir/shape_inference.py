"""Shape and dtype inference over the IR.

A :class:`SweepContext` holds what one forward (topological) walk over a
:class:`~repro.ir.model.Graph` knows so far: per value either its constant
array or its ``(shape, dtype)``.  :meth:`SweepContext.annotate` applies one
node's shape function to it.  Two walks read it: :func:`infer_shapes`, which
only annotates ``graph.value_info`` (the cost model and the cluster schedule
simulator weight operators and messages with these shapes, the process
backend sizes its tensor slots from them), and the pruning sweep of
:mod:`repro.passes`, which also fills the constant table by evaluating nodes.

The shape functions are a hand-written table beside the kernels;
``tests/test_shape_table.py`` pins every entry to what the kernel returns.
Inference is best-effort: an op whose output shape depends on runtime data
(``NonZero``, a ``Reshape`` whose target is computed) produces an unknown
shape rather than failing — never a wrong concrete one.
"""

from __future__ import annotations

import functools
from typing import Callable, Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.ir.dtypes import DType, numpy_to_dtype, promote
from repro.ir.model import Graph
from repro.ir.node import OpNode
from repro.ir.opset import attr_value
from repro.ir.tensor import (
    Shape,
    TensorInfo,
    broadcast_shapes,
    conv_output_dim,
    pool_output_dim,
)


class ShapeInferenceError(RuntimeError):
    """Raised when shape inference encounters an inconsistent graph."""


_InferFn = Callable[["SweepContext", OpNode], List[TensorInfo]]
_INFER_FNS: Dict[str, _InferFn] = {}


def _infer(op_type: str) -> Callable[[_InferFn], _InferFn]:
    def wrap(fn: _InferFn) -> _InferFn:
        _INFER_FNS[op_type] = fn
        return fn

    return wrap


class SweepContext:
    """Mutable state of one forward sweep: known infos and known constant values.

    ``fed`` (name -> array) starts the sweep from one run's feed instead of
    the graph's declared inputs and stored ``value_info``, which describe
    the declared batch size, not the run's; a fed initializer is that run's
    value, not a constant.
    """

    def __init__(self, graph: Graph, fed: Optional[Mapping[str, np.ndarray]] = None) -> None:
        self.graph = graph
        self.fed = fed is not None
        self.infos: Dict[str, TensorInfo] = {}
        self.constants: Dict[str, np.ndarray] = {}
        if fed is None:
            for info in graph.inputs:
                self.infos[info.name] = info
        for name, array in graph.initializers.items():
            self.set_constant(name, array)
        if fed is None:
            for name, info in graph.value_info.items():
                self.infos.setdefault(name, info)
        else:
            for name, array in fed.items():
                self.infos[name] = TensorInfo(name, numpy_to_dtype(array.dtype), array.shape)
                self.constants.pop(name, None)

    def info(self, name: str) -> Optional[TensorInfo]:
        return self.infos.get(name)

    def shape(self, name: str) -> Shape:
        info = self.infos.get(name)
        return None if info is None else info.shape

    def dtype(self, name: str, default: DType = DType.FLOAT32) -> DType:
        info = self.infos.get(name)
        return default if info is None else info.dtype

    def constant(self, name: str) -> Optional[np.ndarray]:
        return self.constants.get(name)

    def set_constant(self, name: str, array: np.ndarray) -> None:
        """Record that ``name`` always holds ``array``; its info comes from the array."""
        self.infos[name] = TensorInfo(name, numpy_to_dtype(array.dtype), array.shape)
        self.constants[name] = array

    def annotate(self, node: OpNode, strict: bool = False) -> List[TensorInfo]:
        """Apply ``node``'s shape function; record and return its outputs' infos.

        When ``strict``, raise :class:`ShapeInferenceError` for an output
        whose shape could not be determined; otherwise record an unknown
        shape and keep going.
        """
        fn = _INFER_FNS.get(node.op_type, _unknown_outputs)
        try:
            outputs = fn(self, node)
        except ShapeInferenceError:
            if not self.fed:
                raise
            outputs = _unknown_outputs(self, node)  # the run reports it, not the sweep
        except Exception as exc:  # noqa: BLE001 - inference must not crash callers
            if strict:
                raise ShapeInferenceError(
                    f"shape inference failed for node {node.name} ({node.op_type}): {exc}"
                ) from exc
            outputs = _unknown_outputs(self, node)
        for out in outputs:
            if strict and out.shape is None:
                raise ShapeInferenceError(
                    f"could not infer shape of {out.name} "
                    f"(node {node.name}, op {node.op_type})"
                )
            self.infos[out.name] = out
        return outputs


def infer_shapes(graph: Graph, strict: bool = False) -> Graph:
    """Annotate ``graph.value_info`` with inferred shapes.

    Parameters
    ----------
    graph:
        The graph to annotate (modified in place and returned).
    strict:
        When True, raise :class:`ShapeInferenceError` for any node whose
        output shape could not be determined; otherwise record an unknown
        shape and keep going.
    """
    from repro.graph.traversal import topological_sort_nodes

    graph.value_info.update(sweep_shapes(graph, topological_sort_nodes(graph), strict=strict))
    return graph


def sweep_shapes(graph: Graph, order: Sequence[OpNode],
                 fed: Optional[Mapping[str, np.ndarray]] = None,
                 strict: bool = False) -> Dict[str, TensorInfo]:
    """The info of every value the nodes of ``order`` (topological) produce.

    One forward sweep of the shape functions — shapes are propagated from
    the inputs, not observed from an execution.  With ``fed`` the inputs are
    one run's arrays (see :class:`SweepContext`) and an inconsistent node is
    recorded unknown rather than raised, so the answer describes exactly
    that run; a fed dtype without an IR name raises ``ValueError``.
    """
    ctx = SweepContext(graph, fed)
    return {out.name: out for node in order for out in ctx.annotate(node, strict)}


def _unknown_outputs(ctx: SweepContext, node: OpNode) -> List[TensorInfo]:
    dtype = ctx.dtype(node.inputs[0]) if node.present_inputs else DType.FLOAT32
    return [TensorInfo(out, dtype, None) for out in node.outputs if out]


def _same_shape(ctx: SweepContext, node: OpNode) -> List[TensorInfo]:
    """The first input's shape, in the dtype the kernel computes in.

    ``_FLOAT32_KERNELS`` cast whatever they are fed; ``_NUMPY_CAST`` ones
    keep a floating operand's dtype and leave anything else to numpy's
    casting table, which this table does not model: nothing is claimed.
    """
    dtype = ctx.dtype(node.inputs[0])
    if node.op_type in _FLOAT32_KERNELS:
        dtype = DType.FLOAT32
    elif node.op_type in _NUMPY_CAST and not dtype.is_floating:
        return _unknown_outputs(ctx, node)
    return [TensorInfo(out, dtype, ctx.shape(node.inputs[0])) for out in node.outputs if out]


def _ints(ctx: SweepContext, node: OpNode, index: int,
          attr: Optional[str] = None) -> Optional[List[int]]:
    """The integer-list parameter that ONNX attribute ``attr``, else input ``index``, carries.

    ``None`` when the node has neither.  An input that is not a known
    constant makes the output shape value-dependent: that raises, and the
    sweep records the node's outputs as unknown.
    """
    value = node.get_attr(attr) if attr else None
    if value is None and len(node.inputs) > index and node.inputs[index]:
        value = ctx.constant(node.inputs[index])
        if value is None:
            raise ValueError(f"input {index} is not a compile-time constant")
        value = np.atleast_1d(value)
    return None if value is None else [int(v) for v in value]


# ---------------------------------------------------------------------------
# Convolution / pooling
# ---------------------------------------------------------------------------
@_infer("Conv")
def _infer_conv(ctx: SweepContext, node: OpNode) -> List[TensorInfo]:
    x = ctx.shape(node.inputs[0])
    w = ctx.shape(node.inputs[1])
    if x is None or w is None or len(x) != 4 or len(w) != 4:
        return _unknown_outputs(ctx, node)
    n, _, h, wdim = x
    out_channels = w[0]
    kernel = node.get_attr("kernel_shape", [w[2], w[3]])
    strides = attr_value(node, "strides")
    pads = attr_value(node, "pads")
    dilations = attr_value(node, "dilations")
    oh = conv_output_dim(h, kernel[0], strides[0], pads[0], pads[2], dilations[0])
    ow = conv_output_dim(wdim, kernel[1], strides[1], pads[1], pads[3], dilations[1])
    return [TensorInfo(node.primary_output, DType.FLOAT32, (n, out_channels, oh, ow))]


@_infer("ConvTranspose")
def _infer_conv_transpose(ctx: SweepContext, node: OpNode) -> List[TensorInfo]:
    x = ctx.shape(node.inputs[0])
    w = ctx.shape(node.inputs[1])
    if x is None or w is None or len(x) != 4 or len(w) != 4:
        return _unknown_outputs(ctx, node)
    n, _, h, wdim = x
    out_channels = w[1]
    kernel = node.get_attr("kernel_shape", [w[2], w[3]])
    strides = attr_value(node, "strides")
    pads = attr_value(node, "pads")
    extra = attr_value(node, "output_padding")
    if h is None or wdim is None:
        oh = ow = None
    else:
        oh = (h - 1) * strides[0] - pads[0] - pads[2] + kernel[0] + extra[0]
        ow = (wdim - 1) * strides[1] - pads[1] - pads[3] + kernel[1] + extra[1]
    return [TensorInfo(node.primary_output, DType.FLOAT32, (n, out_channels, oh, ow))]


def _infer_pool(ctx: SweepContext, node: OpNode) -> List[TensorInfo]:
    x = ctx.shape(node.inputs[0])
    if x is None or len(x) != 4:
        return _unknown_outputs(ctx, node)
    n, c, h, w = x
    kernel = attr_value(node, "kernel_shape")
    strides = attr_value(node, "strides")
    pads = attr_value(node, "pads")
    ceil_mode = attr_value(node, "ceil_mode")
    oh = pool_output_dim(h, kernel[0], strides[0], pads[0], pads[2], ceil_mode)
    ow = pool_output_dim(w, kernel[1], strides[1], pads[1], pads[3], ceil_mode)
    return [TensorInfo(node.primary_output, DType.FLOAT32, (n, c, oh, ow))]


_INFER_FNS["MaxPool"] = _infer_pool
_INFER_FNS["AveragePool"] = _infer_pool


def _infer_global_pool(ctx: SweepContext, node: OpNode) -> List[TensorInfo]:
    x = ctx.shape(node.inputs[0])
    if x is None or len(x) != 4:
        return _unknown_outputs(ctx, node)
    n, c = x[0], x[1]
    return [TensorInfo(node.primary_output, DType.FLOAT32, (n, c, 1, 1))]


_INFER_FNS["GlobalAveragePool"] = _infer_global_pool
_INFER_FNS["GlobalMaxPool"] = _infer_global_pool


# ---------------------------------------------------------------------------
# Linear algebra
# ---------------------------------------------------------------------------
@_infer("MatMul")
def _infer_matmul(ctx: SweepContext, node: OpNode) -> List[TensorInfo]:
    a = ctx.shape(node.inputs[0])
    b = ctx.shape(node.inputs[1])
    if a is None or b is None or len(a) < 1 or len(b) < 1:
        return _unknown_outputs(ctx, node)
    if len(a) == 1 and len(b) == 1:
        return [TensorInfo(node.primary_output, DType.FLOAT32, ())]
    a2 = a if len(a) >= 2 else (1,) + tuple(a)
    b2 = b if len(b) >= 2 else tuple(b) + (1,)
    batch = broadcast_shapes(a2[:-2] or (1,), b2[:-2] or (1,))
    m, k1 = a2[-2], a2[-1]
    k2, n = b2[-2], b2[-1]
    if k1 is not None and k2 is not None and k1 != k2:
        raise ShapeInferenceError(
            f"MatMul inner dimensions disagree: {a} @ {b} in node {node.name}"
        )
    batch = tuple(batch) if batch else ()
    if batch == (1,) and len(a) <= 2 and len(b) <= 2:
        batch = ()
    out_shape = batch + (m, n)
    return [TensorInfo(node.primary_output, DType.FLOAT32, out_shape)]


@_infer("Gemm")
def _infer_gemm(ctx: SweepContext, node: OpNode) -> List[TensorInfo]:
    a = ctx.shape(node.inputs[0])
    b = ctx.shape(node.inputs[1])
    if a is None or b is None or len(a) != 2 or len(b) != 2:
        return _unknown_outputs(ctx, node)
    trans_a = attr_value(node, "transA")
    trans_b = attr_value(node, "transB")
    m = a[1] if trans_a else a[0]
    n = b[0] if trans_b else b[1]
    return [TensorInfo(node.primary_output, DType.FLOAT32, (m, n))]


# ---------------------------------------------------------------------------
# Normalization / activations / elementwise
# ---------------------------------------------------------------------------
_FLOAT32_KERNELS = ("BatchNormalization", "LayerNormalization", "InstanceNormalization",
                    "Sigmoid", "Gelu", "Erf", "Elu", "Selu", "Softplus", "HardSwish", "Mish",
                    "Softmax", "LogSoftmax", "Sqrt", "Exp", "Log", "Reciprocal")
_NUMPY_CAST = ("Relu", "Tanh", "LeakyRelu", "HardSigmoid", "Clip", "Round", "Cos", "Sin")
for _op in _FLOAT32_KERNELS + _NUMPY_CAST + ("Neg", "Abs", "Floor", "Ceil", "Sign", "Identity"):
    _INFER_FNS[_op] = _same_shape


@_infer("Cast")
def _infer_cast(ctx: SweepContext, node: OpNode) -> List[TensorInfo]:
    return [TensorInfo(node.primary_output, attr_value(node, "to"), ctx.shape(node.inputs[0]))]


@_infer("Not")
def _infer_not(ctx: SweepContext, node: OpNode) -> List[TensorInfo]:
    return [TensorInfo(node.primary_output, DType.BOOL, ctx.shape(node.inputs[0]))]


@_infer("Dropout")
def _infer_dropout(ctx: SweepContext, node: OpNode) -> List[TensorInfo]:
    shape = ctx.shape(node.inputs[0])
    dtypes = (ctx.dtype(node.inputs[0]), DType.BOOL)  # data, mask
    return [TensorInfo(out, dtype, shape) for out, dtype in zip(node.outputs, dtypes) if out]


def _infer_binary(ctx: SweepContext, node: OpNode) -> List[TensorInfo]:
    a = ctx.shape(node.inputs[0])
    b = ctx.shape(node.inputs[1]) if len(node.present_inputs) > 1 else a
    if node.op_type in _BOOL_BINARY:
        dtype = DType.BOOL
    else:
        dtype = promote(ctx.dtype(node.inputs[0]), ctx.dtype(node.inputs[-1]))
        if node.op_type == "Div" and not dtype.is_floating:
            dtype = DType.FLOAT64  # the kernel is numpy's true division
        elif node.op_type in ("Pow", "Mod") and dtype is DType.BOOL:
            dtype = DType.INT8  # numpy has no boolean loop for these
    try:
        shape = broadcast_shapes(a, b)
    except ValueError as exc:
        raise ShapeInferenceError(f"node {node.name}: {exc}") from exc
    return [TensorInfo(node.primary_output, dtype, shape)]


_BOOL_BINARY = ("Equal", "Greater", "Less", "GreaterOrEqual", "LessOrEqual", "And", "Or", "Xor")
for _op in ("Add", "Sub", "Mul", "Div", "Pow", "Mod", "Min", "Max", "PRelu") + _BOOL_BINARY:
    _INFER_FNS[_op] = _infer_binary


@_infer("Where")
def _infer_where(ctx: SweepContext, node: OpNode) -> List[TensorInfo]:
    cond = ctx.shape(node.inputs[0])
    a = ctx.shape(node.inputs[1])
    b = ctx.shape(node.inputs[2])
    shape = broadcast_shapes(broadcast_shapes(cond, a), b)
    dtype = promote(ctx.dtype(node.inputs[1]), ctx.dtype(node.inputs[2]))
    return [TensorInfo(node.primary_output, dtype, shape)]


# ---------------------------------------------------------------------------
# Reductions
# ---------------------------------------------------------------------------
def _infer_reduce(ctx: SweepContext, node: OpNode) -> List[TensorInfo]:
    x = ctx.shape(node.inputs[0])
    if x is None:
        return _unknown_outputs(ctx, node)
    axes = _ints(ctx, node, 1, "axes")
    keepdims = attr_value(node, "keepdims")
    if axes is None:
        shape: Shape = tuple(1 for _ in x) if keepdims else ()
    else:
        axes = [a % len(x) for a in axes]
        dims = []
        for i, d in enumerate(x):
            if i in axes:
                if keepdims:
                    dims.append(1)
            else:
                dims.append(d)
        shape = tuple(dims)
    # Only the max / min kernels keep the operand's dtype.
    dtype = ctx.dtype(node.inputs[0]) if node.op_type in ("ReduceMax", "ReduceMin") else DType.FLOAT32
    return [TensorInfo(node.primary_output, dtype, shape)]


for _op in ("ReduceMean", "ReduceSum", "ReduceMax", "ReduceMin", "ReduceProd", "ReduceL2"):
    _INFER_FNS[_op] = _infer_reduce


def _infer_arg_reduce(ctx: SweepContext, node: OpNode) -> List[TensorInfo]:
    x = ctx.shape(node.inputs[0])
    if x is None:
        return [TensorInfo(node.primary_output, DType.INT64, None)]
    axis = attr_value(node, "axis") % len(x)
    keepdims = attr_value(node, "keepdims")
    dims = [d for i, d in enumerate(x) if i != axis or keepdims]
    if keepdims:
        dims = [1 if i == axis else d for i, d in enumerate(x)]
    return [TensorInfo(node.primary_output, DType.INT64, tuple(dims))]


_INFER_FNS["ArgMax"] = _infer_arg_reduce
_INFER_FNS["ArgMin"] = _infer_arg_reduce


# ---------------------------------------------------------------------------
# Concat / split / movement
# ---------------------------------------------------------------------------
@_infer("Concat")
def _infer_concat(ctx: SweepContext, node: OpNode) -> List[TensorInfo]:
    shapes = [ctx.shape(i) for i in node.present_inputs]
    dtype = functools.reduce(promote, [ctx.dtype(i) for i in node.present_inputs])
    if any(s is None for s in shapes):
        return _unknown_outputs(ctx, node)
    axis = attr_value(node, "axis") % len(shapes[0])
    total: Optional[int] = 0
    for s in shapes:
        if s[axis] is None:
            total = None
            break
        total += s[axis]
    dims = list(shapes[0])
    dims[axis] = total
    return [TensorInfo(node.primary_output, dtype, tuple(dims))]


@_infer("Split")
def _infer_split(ctx: SweepContext, node: OpNode) -> List[TensorInfo]:
    x = ctx.shape(node.inputs[0])
    dtype = ctx.dtype(node.inputs[0])
    outs = [o for o in node.outputs if o]
    if x is None:
        return [TensorInfo(o, dtype, None) for o in outs]
    axis = attr_value(node, "axis") % len(x)
    split = _ints(ctx, node, 1, "split")
    if split is None:
        if x[axis] is None:
            sizes = [None] * len(outs)
        else:
            each = x[axis] // len(outs)
            sizes = [each] * len(outs)
    else:
        sizes = list(split)
    infos = []
    for out, size in zip(outs, sizes):
        dims = list(x)
        dims[axis] = size
        infos.append(TensorInfo(out, dtype, tuple(dims)))
    return infos


@_infer("Reshape")
def _infer_reshape(ctx: SweepContext, node: OpNode) -> List[TensorInfo]:
    x = ctx.shape(node.inputs[0])
    dtype = ctx.dtype(node.inputs[0])
    target = _ints(ctx, node, 1, "shape")
    known_elems = None
    if x is not None and all(d is not None for d in x):
        known_elems = int(np.prod(x)) if x else 1
    dims: List[Optional[int]] = []
    neg_index = None
    accounted = 1
    for i, d in enumerate(target):
        if d == -1:
            neg_index = i
            dims.append(None)
        elif d == 0:
            val = x[i] if x is not None and i < len(x) else None
            dims.append(val)
            if val is not None:
                accounted *= val
        else:
            dims.append(int(d))
            accounted *= int(d)
    if neg_index is not None and known_elems is not None and accounted > 0:
        dims[neg_index] = known_elems // accounted
    return [TensorInfo(node.primary_output, dtype, tuple(dims))]


@_infer("Transpose")
def _infer_transpose(ctx: SweepContext, node: OpNode) -> List[TensorInfo]:
    x = ctx.shape(node.inputs[0])
    if x is None:
        return _unknown_outputs(ctx, node)
    perm = node.get_attr("perm", list(reversed(range(len(x)))))
    dims = tuple(x[p] for p in perm)
    return [TensorInfo(node.primary_output, ctx.dtype(node.inputs[0]), dims)]


@_infer("Flatten")
def _infer_flatten(ctx: SweepContext, node: OpNode) -> List[TensorInfo]:
    x = ctx.shape(node.inputs[0])
    if x is None:
        return _unknown_outputs(ctx, node)
    axis = attr_value(node, "axis") % (len(x) + 1)
    head = x[:axis]
    tail = x[axis:]
    d0 = None if any(d is None for d in head) else int(np.prod(head)) if head else 1
    d1 = None if any(d is None for d in tail) else int(np.prod(tail)) if tail else 1
    return [TensorInfo(node.primary_output, ctx.dtype(node.inputs[0]), (d0, d1))]


@_infer("Squeeze")
def _infer_squeeze(ctx: SweepContext, node: OpNode) -> List[TensorInfo]:
    x = ctx.shape(node.inputs[0])
    if x is None:
        return _unknown_outputs(ctx, node)
    axes = _ints(ctx, node, 1, "axes")
    if axes is None:
        dims = tuple(d for d in x if d != 1)
    else:
        axes = [a % len(x) for a in axes]
        dims = tuple(d for i, d in enumerate(x) if i not in axes)
    return [TensorInfo(node.primary_output, ctx.dtype(node.inputs[0]), dims)]


@_infer("Unsqueeze")
def _infer_unsqueeze(ctx: SweepContext, node: OpNode) -> List[TensorInfo]:
    x = ctx.shape(node.inputs[0])
    if x is None:
        return _unknown_outputs(ctx, node)
    axes = _ints(ctx, node, 1, "axes")
    out_rank = len(x) + len(axes)
    axes = sorted(a % out_rank for a in axes)
    dims: List[Optional[int]] = list(x)
    for a in axes:
        dims.insert(a, 1)
    return [TensorInfo(node.primary_output, ctx.dtype(node.inputs[0]), tuple(dims))]


@_infer("Slice")
def _infer_slice(ctx: SweepContext, node: OpNode) -> List[TensorInfo]:
    x = ctx.shape(node.inputs[0])
    if x is None:
        return _unknown_outputs(ctx, node)
    starts = _ints(ctx, node, 1, "starts")
    ends = _ints(ctx, node, 2, "ends")
    axes = _ints(ctx, node, 3, "axes") or range(len(starts))
    steps = _ints(ctx, node, 4, "steps") or [1] * len(starts)
    dims = list(x)
    for start, end, axis, step in zip(starts, ends, axes, steps):
        axis = axis % len(x)
        if dims[axis] is None:
            continue
        size = dims[axis]
        start_c = min(max(start + size if start < 0 else start, 0), size)
        end_c = min(max(end + size if end < 0 else end, 0), size) if end < 10**8 else size
        extent = max(end_c - start_c, 0)
        dims[axis] = max((extent + abs(step) - 1) // abs(step), 0)
    return [TensorInfo(node.primary_output, ctx.dtype(node.inputs[0]), tuple(dims))]


@_infer("Gather")
def _infer_gather(ctx: SweepContext, node: OpNode) -> List[TensorInfo]:
    data = ctx.shape(node.inputs[0])
    indices = ctx.shape(node.inputs[1])
    if data is None or indices is None:
        return _unknown_outputs(ctx, node)
    axis = attr_value(node, "axis") % len(data)
    dims = tuple(data[:axis]) + tuple(indices) + tuple(data[axis + 1:])
    return [TensorInfo(node.primary_output, ctx.dtype(node.inputs[0]), dims)]


_INFER_FNS["EmbeddingLookup"] = lambda ctx, node: [
    TensorInfo(
        node.primary_output,
        ctx.dtype(node.inputs[0]),
        (tuple(ctx.shape(node.inputs[1]) or ()) + tuple((ctx.shape(node.inputs[0]) or (None, None))[1:]))
        if ctx.shape(node.inputs[1]) is not None and ctx.shape(node.inputs[0]) is not None
        else None,
    )
]


@_infer("Expand")
def _infer_expand(ctx: SweepContext, node: OpNode) -> List[TensorInfo]:
    shape = broadcast_shapes(ctx.shape(node.inputs[0]), tuple(_ints(ctx, node, 1)))
    return [TensorInfo(node.primary_output, ctx.dtype(node.inputs[0]), shape)]


@_infer("Tile")
def _infer_tile(ctx: SweepContext, node: OpNode) -> List[TensorInfo]:
    x = ctx.shape(node.inputs[0])
    reps = _ints(ctx, node, 1)
    if x is None:
        return _unknown_outputs(ctx, node)
    dims = tuple(None if d is None else d * r for d, r in zip(x, reps))
    return [TensorInfo(node.primary_output, ctx.dtype(node.inputs[0]), dims)]


@_infer("Pad")
def _infer_pad(ctx: SweepContext, node: OpNode) -> List[TensorInfo]:
    x = ctx.shape(node.inputs[0])
    if x is None:
        return _unknown_outputs(ctx, node)
    pads = _ints(ctx, node, 1, "pads")  # the before-padding per axis, then the after-padding
    dims = tuple(None if d is None else d + before + after
                 for d, before, after in zip(x, pads, pads[len(x):]))
    return [TensorInfo(node.primary_output, ctx.dtype(node.inputs[0]), dims)]


def _infer_resize(ctx: SweepContext, node: OpNode) -> List[TensorInfo]:
    x = ctx.shape(node.inputs[0])
    scales = node.get_attr("scales")
    if x is None or scales is None or len(x) != len(scales):
        return _unknown_outputs(ctx, node)
    # The kernel resizes the two spatial axes of an NCHW tensor and rounds.
    dims = x[:2] + tuple(None if d is None else int(round(d * s))
                         for d, s in zip(x[2:], scales[2:]))
    return [TensorInfo(node.primary_output, ctx.dtype(node.inputs[0]), dims)]


_INFER_FNS["Resize"] = _infer_resize
_INFER_FNS["Upsample"] = _infer_resize


@_infer("DepthToSpace")
def _infer_depth_to_space(ctx: SweepContext, node: OpNode) -> List[TensorInfo]:
    x = ctx.shape(node.inputs[0])
    if x is None or len(x) != 4:
        return _unknown_outputs(ctx, node)
    n, c, h, w = x
    b = attr_value(node, "blocksize")
    c_out = None if c is None else c // (b * b)
    return [TensorInfo(node.primary_output, ctx.dtype(node.inputs[0]),
                       (n, c_out, None if h is None else h * b, None if w is None else w * b))]


@_infer("SpaceToDepth")
def _infer_space_to_depth(ctx: SweepContext, node: OpNode) -> List[TensorInfo]:
    x = ctx.shape(node.inputs[0])
    if x is None or len(x) != 4:
        return _unknown_outputs(ctx, node)
    n, c, h, w = x
    b = attr_value(node, "blocksize")
    return [TensorInfo(node.primary_output, ctx.dtype(node.inputs[0]),
                       (n, None if c is None else c * b * b,
                        None if h is None else h // b, None if w is None else w // b))]


# ---------------------------------------------------------------------------
# Metadata ops
# ---------------------------------------------------------------------------
@_infer("Shape")
def _infer_shape_op(ctx: SweepContext, node: OpNode) -> List[TensorInfo]:
    x = ctx.shape(node.inputs[0])
    rank = None if x is None else len(x)
    return [TensorInfo(node.primary_output, DType.INT64, (rank,) if rank is not None else None)]


@_infer("Size")
def _infer_size(ctx: SweepContext, node: OpNode) -> List[TensorInfo]:
    return [TensorInfo(node.primary_output, DType.INT64, ())]


@_infer("Constant")
def _infer_constant(ctx: SweepContext, node: OpNode) -> List[TensorInfo]:
    value = node.get_attr("value")
    if value is None:
        return [TensorInfo(node.primary_output, DType.FLOAT32, None)]
    ctx.set_constant(node.primary_output, np.asarray(value))
    return [ctx.infos[node.primary_output]]


@_infer("ConstantOfShape")
def _infer_constant_of_shape(ctx: SweepContext, node: OpNode) -> List[TensorInfo]:
    dtype = numpy_to_dtype(np.asarray(attr_value(node, "value")).dtype)
    if dtype is DType.FLOAT64:  # the kernel fills float32 for a Python float
        dtype = DType.FLOAT32
    shape = ctx.constant(node.inputs[0])
    return [TensorInfo(node.primary_output, dtype,
                       None if shape is None else [int(d) for d in np.atleast_1d(shape)])]


@_infer("OneHot")
def _infer_one_hot(ctx: SweepContext, node: OpNode) -> List[TensorInfo]:
    return [TensorInfo(node.primary_output, DType.FLOAT32, None)]  # the kernel's fill dtype


@_infer("Range")
def _infer_range(ctx: SweepContext, node: OpNode) -> List[TensorInfo]:
    start = ctx.constant(node.inputs[0])
    limit = ctx.constant(node.inputs[1])
    delta = ctx.constant(node.inputs[2])
    # The kernel hands Python scalars to ``np.arange``: int64 or float64.
    integral = all(ctx.dtype(name).is_integer for name in node.inputs[:3])
    dtype = DType.INT64 if integral else DType.FLOAT64
    if start is None or limit is None or delta is None:
        return [TensorInfo(node.primary_output, dtype, None)]
    count = int(max(np.ceil((float(limit) - float(start)) / float(delta)), 0))
    return [TensorInfo(node.primary_output, dtype, (count,))]


@_infer("NonZero")
def _infer_nonzero(ctx: SweepContext, node: OpNode) -> List[TensorInfo]:
    x = ctx.shape(node.inputs[0])
    rank = None if x is None else len(x)
    return [TensorInfo(node.primary_output, DType.INT64,
                       (rank, None) if rank is not None else None)]


@_infer("TopK")
def _infer_topk(ctx: SweepContext, node: OpNode) -> List[TensorInfo]:
    x = ctx.shape(node.inputs[0])
    k = ctx.constant(node.inputs[1])
    if x is None:
        return _unknown_outputs(ctx, node)
    axis = attr_value(node, "axis") % len(x)
    dims = list(x)
    dims[axis] = None if k is None else int(k.reshape(-1)[0])
    outs = [o for o in node.outputs if o]
    infos = [TensorInfo(outs[0], ctx.dtype(node.inputs[0]), tuple(dims))]
    if len(outs) > 1:
        infos.append(TensorInfo(outs[1], DType.INT64, tuple(dims)))
    return infos
