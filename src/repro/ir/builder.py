"""Fluent graph construction API used by the model zoo.

:class:`GraphBuilder` wraps a :class:`~repro.ir.model.Graph` and provides
one method per common operator.  Each method creates the operator node,
registers any weight initializers it needs (with a seeded RNG so models are
reproducible), runs local shape inference, and returns the output value
name so that calls chain naturally::

    b = GraphBuilder("toy", seed=0)
    x = b.input("x", (1, 3, 32, 32))
    y = b.relu(b.conv(x, out_channels=8, kernel=3, pads=1))
    b.output(y)
    model = b.build()
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.ir.dtypes import DType
from repro.ir.model import Graph, Model
from repro.ir.node import OpNode
from repro.ir.shape_inference import infer_shapes
from repro.ir.tensor import TensorInfo, conv_output_dim, pool_output_dim
from repro.ir.validation import validate_graph

IntOrPair = Union[int, Sequence[int]]


def _pair(value: IntOrPair) -> List[int]:
    if isinstance(value, (list, tuple)):
        return [int(value[0]), int(value[1])]
    return [int(value), int(value)]


def _quad(value: IntOrPair) -> List[int]:
    if isinstance(value, (list, tuple)):
        if len(value) == 4:
            return [int(v) for v in value]
        return [int(value[0]), int(value[1]), int(value[0]), int(value[1])]
    return [int(value)] * 4


class GraphBuilder:
    """Incrementally build an IR :class:`Graph`/:class:`Model`.

    Parameters
    ----------
    name:
        Graph/model name.
    seed:
        Seed for the weight-initializer RNG, so that every build of a zoo
        model produces bit-identical initializers.
    small_weights:
        When True (default), weights are drawn from a narrow distribution
        scaled by fan-in, keeping activations numerically tame for the
        real execution paths.
    """

    def __init__(self, name: str, seed: int = 0, small_weights: bool = True) -> None:
        self.graph = Graph(name=name)
        self.rng = np.random.default_rng(seed)
        self.small_weights = small_weights
        self._counters: Dict[str, itertools.count] = {}
        #: best-known shapes for values created through the builder
        self.shapes: Dict[str, Tuple[Optional[int], ...]] = {}

    # ------------------------------------------------------------------
    # Naming helpers
    # ------------------------------------------------------------------
    def fresh(self, prefix: str) -> str:
        """Return a fresh value/node name with the given prefix."""
        counter = self._counters.setdefault(prefix, itertools.count())
        return f"{prefix}_{next(counter)}"

    # ------------------------------------------------------------------
    # Graph-level I/O
    # ------------------------------------------------------------------
    def input(
        self,
        name: str,
        shape: Sequence[Optional[int]],
        dtype: DType = DType.FLOAT32,
    ) -> str:
        """Declare a graph input and return its value name."""
        info = TensorInfo(name, dtype, tuple(shape))
        self.graph.inputs.append(info)
        self.shapes[name] = info.shape
        return name

    def output(self, name: str, dtype: DType = DType.FLOAT32) -> str:
        """Declare a graph output."""
        shape = self.shapes.get(name)
        self.graph.outputs.append(TensorInfo(name, dtype, shape))
        return name

    def initializer(self, name: str, array: np.ndarray) -> str:
        """Register an explicit initializer array."""
        self.graph.add_initializer(name, np.asarray(array))
        self.shapes[name] = tuple(np.asarray(array).shape)
        return name

    def weight(self, prefix: str, shape: Sequence[int], scale: Optional[float] = None) -> str:
        """Create a random float32 weight initializer."""
        shape = tuple(int(s) for s in shape)
        if scale is None:
            fan_in = int(np.prod(shape[1:])) if len(shape) > 1 else max(shape[0], 1)
            scale = 1.0 / np.sqrt(max(fan_in, 1)) if self.small_weights else 1.0
        array = (self.rng.standard_normal(shape) * scale).astype(np.float32)
        return self.initializer(self.fresh(prefix), array)

    def const(self, value: np.ndarray, prefix: str = "const") -> str:
        """Register a constant tensor as an initializer and return its name."""
        return self.initializer(self.fresh(prefix), np.asarray(value))

    # ------------------------------------------------------------------
    # Core node factory
    # ------------------------------------------------------------------
    def node(
        self,
        op_type: str,
        inputs: Sequence[str],
        num_outputs: int = 1,
        name: Optional[str] = None,
        out_names: Optional[Sequence[str]] = None,
        **attrs,
    ) -> Union[str, List[str]]:
        """Add a node; returns its single output name, or the list of names."""
        node_name = name or self.fresh(op_type.lower())
        if out_names is None:
            out_names = [f"{node_name}_out{i}" if num_outputs > 1 else f"{node_name}_out"
                         for i in range(num_outputs)]
        node = OpNode.create(op_type, list(inputs), list(out_names), name=node_name, **attrs)
        self.graph.add_node(node)
        return out_names[0] if num_outputs == 1 else list(out_names)

    # ------------------------------------------------------------------
    # Convolution / pooling
    # ------------------------------------------------------------------
    def conv(
        self,
        x: str,
        out_channels: int,
        kernel: IntOrPair = 3,
        strides: IntOrPair = 1,
        pads: IntOrPair = 0,
        dilations: IntOrPair = 1,
        group: int = 1,
        bias: bool = True,
        name: Optional[str] = None,
    ) -> str:
        """2D convolution with freshly created weights."""
        in_shape = self.shapes.get(x)
        in_channels = in_shape[1] if in_shape and in_shape[1] is not None else out_channels
        k = _pair(kernel)
        w = self.weight("conv_w", (out_channels, max(in_channels // group, 1), k[0], k[1]))
        inputs = [x, w]
        if bias:
            inputs.append(self.weight("conv_b", (out_channels,), scale=0.01))
        out = self.node(
            "Conv",
            inputs,
            name=name,
            kernel_shape=k,
            strides=_pair(strides),
            pads=_quad(pads),
            dilations=_pair(dilations),
            group=group,
        )
        if in_shape is not None and len(in_shape) == 4:
            s, p, d = _pair(strides), _quad(pads), _pair(dilations)
            oh = conv_output_dim(in_shape[2], k[0], s[0], p[0], p[2], d[0])
            ow = conv_output_dim(in_shape[3], k[1], s[1], p[1], p[3], d[1])
            self.shapes[out] = (in_shape[0], out_channels, oh, ow)
        return out

    def depthwise_conv(self, x: str, kernel: IntOrPair = 3, strides: IntOrPair = 1,
                       pads: IntOrPair = 1, name: Optional[str] = None) -> str:
        """Depthwise separable convolution (group == channels)."""
        in_shape = self.shapes.get(x)
        channels = in_shape[1] if in_shape and in_shape[1] is not None else 1
        return self.conv(x, out_channels=channels, kernel=kernel, strides=strides,
                         pads=pads, group=channels, name=name)

    def _pool(self, op: str, x: str, kernel: IntOrPair, strides: IntOrPair,
              pads: IntOrPair, ceil_mode: bool, name: Optional[str]) -> str:
        k, s, p = _pair(kernel), _pair(strides), _quad(pads)
        out = self.node(op, [x], name=name, kernel_shape=k, strides=s, pads=p,
                        ceil_mode=int(ceil_mode))
        in_shape = self.shapes.get(x)
        if in_shape is not None and len(in_shape) == 4:
            oh = pool_output_dim(in_shape[2], k[0], s[0], p[0], p[2], ceil_mode)
            ow = pool_output_dim(in_shape[3], k[1], s[1], p[1], p[3], ceil_mode)
            self.shapes[out] = (in_shape[0], in_shape[1], oh, ow)
        return out

    def maxpool(self, x: str, kernel: IntOrPair = 3, strides: IntOrPair = 2,
                pads: IntOrPair = 0, ceil_mode: bool = False, name: Optional[str] = None) -> str:
        """2D max pooling."""
        return self._pool("MaxPool", x, kernel, strides, pads, ceil_mode, name)

    def avgpool(self, x: str, kernel: IntOrPair = 3, strides: IntOrPair = 1,
                pads: IntOrPair = 1, ceil_mode: bool = False, name: Optional[str] = None) -> str:
        """2D average pooling."""
        return self._pool("AveragePool", x, kernel, strides, pads, ceil_mode, name)

    def global_avgpool(self, x: str, name: Optional[str] = None) -> str:
        """Global average pooling down to 1x1 spatial size."""
        out = self.node("GlobalAveragePool", [x], name=name)
        in_shape = self.shapes.get(x)
        if in_shape is not None and len(in_shape) == 4:
            self.shapes[out] = (in_shape[0], in_shape[1], 1, 1)
        return out

    # ------------------------------------------------------------------
    # Elementwise / activations / normalization
    # ------------------------------------------------------------------
    def _unary(self, op: str, x: str, name: Optional[str] = None, **attrs) -> str:
        out = self.node(op, [x], name=name, **attrs)
        self.shapes[out] = self.shapes.get(x)
        return out

    def relu(self, x: str, name: Optional[str] = None) -> str:
        """ReLU activation."""
        return self._unary("Relu", x, name)

    def sigmoid(self, x: str, name: Optional[str] = None) -> str:
        """Sigmoid activation."""
        return self._unary("Sigmoid", x, name)

    def tanh(self, x: str, name: Optional[str] = None) -> str:
        """Tanh activation."""
        return self._unary("Tanh", x, name)

    def gelu(self, x: str, name: Optional[str] = None) -> str:
        """GELU activation (used by BERT)."""
        return self._unary("Gelu", x, name)

    def erf(self, x: str, name: Optional[str] = None) -> str:
        """Error function (appears in ONNX-exported GELU)."""
        return self._unary("Erf", x, name)

    def leaky_relu(self, x: str, alpha: float = 0.1, name: Optional[str] = None) -> str:
        """LeakyReLU activation (Yolo)."""
        return self._unary("LeakyRelu", x, name, alpha=alpha)

    def softmax(self, x: str, axis: int = -1, name: Optional[str] = None) -> str:
        """Softmax along an axis."""
        return self._unary("Softmax", x, name, axis=axis)

    def identity(self, x: str, name: Optional[str] = None) -> str:
        """Identity pass-through."""
        return self._unary("Identity", x, name)

    def cast(self, x: str, to: str = "float32", name: Optional[str] = None) -> str:
        """Cast element type."""
        return self._unary("Cast", x, name, to=to)

    def _binary(self, op: str, a: str, b: str, name: Optional[str] = None) -> str:
        out = self.node(op, [a, b], name=name)
        sa, sb = self.shapes.get(a), self.shapes.get(b)
        self.shapes[out] = sa if sa is not None else sb
        return out

    def add(self, a: str, b: str, name: Optional[str] = None) -> str:
        """Elementwise addition."""
        return self._binary("Add", a, b, name)

    def sub(self, a: str, b: str, name: Optional[str] = None) -> str:
        """Elementwise subtraction."""
        return self._binary("Sub", a, b, name)

    def mul(self, a: str, b: str, name: Optional[str] = None) -> str:
        """Elementwise multiplication."""
        return self._binary("Mul", a, b, name)

    def div(self, a: str, b: str, name: Optional[str] = None) -> str:
        """Elementwise division."""
        return self._binary("Div", a, b, name)

    def pow(self, a: str, b: str, name: Optional[str] = None) -> str:
        """Elementwise power."""
        return self._binary("Pow", a, b, name)

    def sqrt(self, x: str, name: Optional[str] = None) -> str:
        """Elementwise square root."""
        return self._unary("Sqrt", x, name)

    def batchnorm(self, x: str, epsilon: float = 1e-5, name: Optional[str] = None) -> str:
        """Inference-mode batch normalization with fresh scale/bias/mean/var."""
        in_shape = self.shapes.get(x)
        channels = in_shape[1] if in_shape and in_shape[1] is not None else 1
        scale = self.initializer(self.fresh("bn_scale"),
                                 np.ones(channels, dtype=np.float32))
        bias = self.initializer(self.fresh("bn_bias"),
                                np.zeros(channels, dtype=np.float32))
        mean = self.initializer(self.fresh("bn_mean"),
                                np.zeros(channels, dtype=np.float32))
        var = self.initializer(self.fresh("bn_var"),
                               np.ones(channels, dtype=np.float32))
        out = self.node("BatchNormalization", [x, scale, bias, mean, var],
                        name=name, epsilon=epsilon)
        self.shapes[out] = in_shape
        return out

    # ------------------------------------------------------------------
    # Linear algebra
    # ------------------------------------------------------------------
    def matmul(self, a: str, b: str, name: Optional[str] = None) -> str:
        """Batched matrix multiplication of two existing values."""
        out = self.node("MatMul", [a, b], name=name)
        sa, sb = self.shapes.get(a), self.shapes.get(b)
        if sa is not None and sb is not None and len(sa) >= 2 and len(sb) >= 2:
            self.shapes[out] = tuple(sa[:-1]) + (sb[-1],)
        return out

    def linear(self, x: str, out_features: int, bias: bool = True,
               name: Optional[str] = None) -> str:
        """Dense layer: MatMul with a fresh weight (+ Add bias)."""
        in_shape = self.shapes.get(x)
        in_features = in_shape[-1] if in_shape and in_shape[-1] is not None else out_features
        w = self.weight("linear_w", (in_features, out_features))
        out = self.matmul(x, w, name=name)
        if bias:
            b = self.weight("linear_b", (out_features,), scale=0.01)
            out = self.add(out, b)
        if in_shape is not None:
            self.shapes[out] = tuple(in_shape[:-1]) + (out_features,)
        return out

    def gemm(self, x: str, out_features: int, name: Optional[str] = None) -> str:
        """Gemm (fully connected classifier head) with fresh weights."""
        in_shape = self.shapes.get(x)
        in_features = in_shape[-1] if in_shape and in_shape[-1] is not None else out_features
        w = self.weight("gemm_w", (out_features, in_features))
        b = self.weight("gemm_b", (out_features,), scale=0.01)
        out = self.node("Gemm", [x, w, b], name=name, alpha=1.0, beta=1.0,
                        transA=0, transB=1)
        if in_shape is not None:
            self.shapes[out] = (in_shape[0], out_features)
        return out

    # ------------------------------------------------------------------
    # Shape / movement ops
    # ------------------------------------------------------------------
    def concat(self, inputs: Sequence[str], axis: int = 1, name: Optional[str] = None) -> str:
        """Concatenate values along an axis."""
        out = self.node("Concat", list(inputs), name=name, axis=axis)
        shapes = [self.shapes.get(i) for i in inputs]
        if all(s is not None for s in shapes) and shapes:
            ref = list(shapes[0])
            ax = axis % len(ref)
            if all(s[ax] is not None for s in shapes):
                ref[ax] = sum(s[ax] for s in shapes)
                self.shapes[out] = tuple(ref)
        return out

    def split(self, x: str, parts: int, axis: int = 1, name: Optional[str] = None) -> List[str]:
        """Split a value into ``parts`` equal chunks along ``axis``."""
        outs = self.node("Split", [x], num_outputs=parts, name=name, axis=axis)
        in_shape = self.shapes.get(x)
        if in_shape is not None and in_shape[axis % len(in_shape)] is not None:
            dims = list(in_shape)
            ax = axis % len(in_shape)
            dims[ax] = dims[ax] // parts
            for o in outs:
                self.shapes[o] = tuple(dims)
        return outs

    def reshape(self, x: str, shape: Sequence[int], name: Optional[str] = None) -> str:
        """Reshape to a static target shape (passed via a constant tensor)."""
        shape_const = self.const(np.asarray(shape, dtype=np.int64), prefix="reshape_shape")
        out = self.node("Reshape", [x, shape_const], name=name, shape=list(shape))
        in_shape = self.shapes.get(x)
        dims = list(shape)
        if in_shape is not None and all(d is not None for d in in_shape):
            total = int(np.prod(in_shape)) if in_shape else 1
            accounted = int(np.prod([d for d in dims if d > 0])) or 1
            dims = [total // accounted if d == -1 else d for d in dims]
        self.shapes[out] = tuple(None if d == -1 else d for d in dims)
        return out

    def transpose(self, x: str, perm: Sequence[int], name: Optional[str] = None) -> str:
        """Permute dimensions."""
        out = self.node("Transpose", [x], name=name, perm=list(perm))
        in_shape = self.shapes.get(x)
        if in_shape is not None and len(in_shape) == len(perm):
            self.shapes[out] = tuple(in_shape[p] for p in perm)
        return out

    def flatten(self, x: str, axis: int = 1, name: Optional[str] = None) -> str:
        """Flatten trailing dimensions starting at ``axis``."""
        out = self.node("Flatten", [x], name=name, axis=axis)
        in_shape = self.shapes.get(x)
        if in_shape is not None and all(d is not None for d in in_shape):
            head = int(np.prod(in_shape[:axis])) if axis > 0 else 1
            tail = int(np.prod(in_shape[axis:])) if in_shape[axis:] else 1
            self.shapes[out] = (head, tail)
        return out

    def slice(self, x: str, starts: Sequence[int], ends: Sequence[int],
              axes: Optional[Sequence[int]] = None, name: Optional[str] = None) -> str:
        """Slice a tensor with static starts/ends."""
        out = self.node("Slice", [x], name=name, starts=list(starts), ends=list(ends),
                        axes=list(axes) if axes is not None else list(range(len(starts))))
        in_shape = self.shapes.get(x)
        if in_shape is not None:
            dims = list(in_shape)
            use_axes = list(axes) if axes is not None else list(range(len(starts)))
            for s, e, a in zip(starts, ends, use_axes):
                if dims[a] is None:
                    continue
                size = dims[a]
                s_c = min(max(s + size if s < 0 else s, 0), size)
                e_c = size if e >= 10**8 else min(max(e + size if e < 0 else e, 0), size)
                dims[a] = max(e_c - s_c, 0)
            self.shapes[out] = tuple(dims)
        return out

    def gather(self, data: str, indices: str, axis: int = 0, name: Optional[str] = None) -> str:
        """Gather rows/elements along an axis."""
        out = self.node("Gather", [data, indices], name=name, axis=axis)
        d, i = self.shapes.get(data), self.shapes.get(indices)
        if d is not None and i is not None:
            ax = axis % len(d)
            self.shapes[out] = tuple(d[:ax]) + tuple(i) + tuple(d[ax + 1:])
        return out

    def shape_of(self, x: str, name: Optional[str] = None) -> str:
        """Shape metadata op."""
        out = self.node("Shape", [x], name=name)
        in_shape = self.shapes.get(x)
        self.shapes[out] = (len(in_shape),) if in_shape is not None else None
        return out

    def resize(self, x: str, scale: float = 2.0, mode: str = "nearest",
               name: Optional[str] = None) -> str:
        """Spatial upsampling by a uniform scale factor (Yolo/Retinanet FPN)."""
        out = self.node("Resize", [x], name=name, mode=mode,
                        scales=[1.0, 1.0, float(scale), float(scale)])
        in_shape = self.shapes.get(x)
        if in_shape is not None and len(in_shape) == 4:
            self.shapes[out] = (
                in_shape[0], in_shape[1],
                None if in_shape[2] is None else int(in_shape[2] * scale),
                None if in_shape[3] is None else int(in_shape[3] * scale),
            )
        return out

    def dropout(self, x: str, ratio: float = 0.1, name: Optional[str] = None) -> str:
        """Inference-mode dropout (a pass-through the passes can eliminate)."""
        node_name = name or self.fresh("dropout")
        outs = self.node("Dropout", [x], num_outputs=2, name=node_name, ratio=ratio)
        self.shapes[outs[0]] = self.shapes.get(x)
        return outs[0]

    def reduce_mean(self, x: str, axes: Sequence[int], keepdims: bool = True,
                    name: Optional[str] = None) -> str:
        """Mean reduction over the given axes."""
        out = self.node("ReduceMean", [x], name=name, axes=list(axes),
                        keepdims=int(keepdims))
        in_shape = self.shapes.get(x)
        if in_shape is not None:
            norm_axes = [a % len(in_shape) for a in axes]
            dims = []
            for i, d in enumerate(in_shape):
                if i in norm_axes:
                    if keepdims:
                        dims.append(1)
                else:
                    dims.append(d)
            self.shapes[out] = tuple(dims)
        return out

    # ------------------------------------------------------------------
    # Composite blocks commonly used in the zoo
    # ------------------------------------------------------------------
    def conv_relu(self, x: str, out_channels: int, kernel: IntOrPair = 3,
                  strides: IntOrPair = 1, pads: IntOrPair = 0,
                  name: Optional[str] = None) -> str:
        """Conv -> ReLU block (the Squeezenet/Googlenet idiom in Fig. 1)."""
        return self.relu(self.conv(x, out_channels, kernel=kernel, strides=strides,
                                   pads=pads, name=name))

    # ------------------------------------------------------------------
    # Finalization
    # ------------------------------------------------------------------
    def build(self, validate: bool = True, infer: bool = True) -> Model:
        """Finalize and return the model (validated, shapes inferred)."""
        if validate:
            validate_graph(self.graph)
        if infer:
            infer_shapes(self.graph)
        return Model(graph=self.graph, name=self.graph.name)
