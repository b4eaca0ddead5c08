"""The operator declaration is the single source of an operator's call.

Every registered operator is bound (interpreter, plan) and rendered
(generated code) from its one ``_reg`` in :mod:`repro.ir.opset`.  These
tests pin that the three agree bitwise on every operator — including both
the attribute form and the input-tensor form of every attr-or-tensor
parameter — and that the declared defaults are the ONNX defaults.
"""

from __future__ import annotations

import ast
import inspect

import numpy as np
import pytest

import repro.runtime.functional as F
from repro.codegen import LoweringError, lower_node
from repro.ir import GraphBuilder, OpNode
from repro.ir.dtypes import numpy_to_dtype
from repro.ir.opset import _literal, _resolve, attr_value, bind, get_schema, registered_ops
from repro.runtime import ExecutionError, ExecutionPlan, GraphExecutor, PlanError

_RNG = np.random.default_rng(13)


def f32(*shape):
    return _RNG.standard_normal(shape).astype(np.float32)


def pos(*shape):
    return (np.abs(_RNG.standard_normal(shape)) + 0.5).astype(np.float32)


def i64(*values):
    return np.asarray(values, dtype=np.int64)


def flags(*shape):
    return _RNG.random(shape) > 0.5


def case(op, inputs, outputs=1, id=None, **attrs):
    """One example node: ``inputs`` are arrays (``None`` = absent optional input)."""
    return pytest.param(op, inputs, outputs, attrs, id=id or op)


X = f32(1, 4, 8, 8)          # NCHW feature map
BIG = f32(1, 4, 32, 32)      # >= 4096 bytes, so the plan's slab engages
IDX = i64(2, 0, 1)

#: Example nodes.  Every registered operator appears at least once
#: (``test_every_registered_op_has_a_case``); attr-or-tensor parameters
#: appear in both forms.
CASES = [
    # -- convolution / pooling ------------------------------------------
    case("Conv", [BIG, f32(6, 4, 3, 3), f32(6)], pads=[1, 1, 1, 1], kernel_shape=[3, 3]),
    case("Conv", [BIG, f32(6, 4, 3, 3)], id="Conv-bare"),
    case("Conv", [BIG, f32(8, 2, 3, 3), f32(8)], id="Conv-grouped",
         strides=[2, 2], pads=[1, 1, 1, 1], dilations=[1, 1], group=2),
    case("ConvTranspose", [X, f32(4, 3, 3, 3), f32(3)], strides=[2, 2], pads=[1, 1, 1, 1],
         output_padding=[1, 1]),
    case("ConvTranspose", [X, f32(4, 3, 2, 2)], id="ConvTranspose-bare"),
    case("MaxPool", [BIG], kernel_shape=[3, 3], strides=[2, 2], pads=[1, 1, 1, 1], ceil_mode=1),
    case("MaxPool", [BIG], id="MaxPool-bare"),
    case("AveragePool", [BIG], kernel_shape=[3, 3], strides=[2, 2], pads=[1, 1, 1, 1]),
    case("AveragePool", [BIG], id="AveragePool-include-pad", kernel_shape=[2, 2],
         strides=[2, 2], pads=[1, 1, 1, 1], count_include_pad=1),
    case("GlobalAveragePool", [X]),
    case("GlobalMaxPool", [X]),
    # -- linear algebra / normalization ---------------------------------
    case("MatMul", [f32(2, 40, 30), f32(30, 40)]),
    case("Gemm", [f32(40, 30), f32(30, 40), f32(40)]),
    case("Gemm", [f32(30, 40), f32(40, 30)], id="Gemm-trans", alpha=0.5, transA=1, transB=1),
    case("Einsum", [f32(3, 4), f32(4, 5)], equation="ij,jk->ik"),
    case("BatchNormalization", [X, pos(4), f32(4), f32(4), pos(4)], epsilon=1e-3, momentum=0.9),
    case("BatchNormalization", [X, pos(4), f32(4), f32(4), pos(4)], id="BatchNormalization-bare"),
    case("LayerNormalization", [f32(2, 5, 8), pos(8), f32(8)], axis=-1, epsilon=1e-6),
    case("LayerNormalization", [f32(2, 5, 8), pos(8)], id="LayerNormalization-no-bias"),
    case("InstanceNormalization", [X, pos(4), f32(4)]),
    # -- activations -----------------------------------------------------
    *[case(op, [BIG]) for op in (
        "Relu", "Sigmoid", "Tanh", "Erf", "Softplus", "Gelu", "HardSwish", "Mish",
        "LeakyRelu", "Elu", "Selu", "HardSigmoid")],
    case("LeakyRelu", [X], id="LeakyRelu-alpha", alpha=0.2),
    case("Elu", [X], id="Elu-alpha", alpha=0.5),
    case("Selu", [X], id="Selu-attrs", alpha=1.5, gamma=1.1),
    case("HardSigmoid", [X], id="HardSigmoid-attrs", alpha=0.3, beta=0.4),
    case("PRelu", [X, pos(4, 1, 1)]),
    case("Clip", [BIG], id="Clip-attrs", min=-0.5, max=0.5),
    case("Clip", [BIG], id="Clip-bare"),
    case("Clip", [BIG, np.float32(-0.25), np.float32(0.75)], id="Clip-inputs"),
    case("Clip", [BIG, None, np.float32(0.1)], id="Clip-max-input-only"),
    case("Clip", [BIG], id="Clip-infinite-bound", min=-np.inf, max=0.5),
    case("Softmax", [f32(3, 7)]),
    case("Softmax", [f32(3, 7)], id="Softmax-axis0", axis=0),
    case("LogSoftmax", [f32(3, 7)]),
    # -- elementwise ------------------------------------------------------
    *[case(op, [BIG, f32(1, 4, 1, 1)]) for op in ("Add", "Sub", "Mul", "Min", "Max")],
    case("Div", [BIG, pos(1, 4, 1, 1)]),
    case("Pow", [pos(1, 4, 32, 32), f32(1, 4, 1, 1)]),
    case("Mod", [BIG, pos(1, 4, 1, 1)]),
    *[case(op, [BIG]) for op in (
        "Exp", "Neg", "Abs", "Reciprocal", "Floor", "Ceil", "Round", "Sign", "Cos", "Sin")],
    case("Sqrt", [pos(1, 4, 32, 32)]),
    case("Log", [pos(1, 4, 32, 32)]),
    *[case(op, [f32(3, 5), f32(3, 5)]) for op in (
        "Equal", "Greater", "Less", "GreaterOrEqual", "LessOrEqual")],
    *[case(op, [flags(3, 5), flags(3, 5)]) for op in ("And", "Or", "Xor")],
    case("Not", [flags(3, 5)]),
    case("Where", [flags(3, 5), f32(3, 5), f32(3, 5)]),
    # -- reductions -------------------------------------------------------
    *[case(op, [f32(2, 3, 4)], id=f"{op}-attr", axes=[1], keepdims=0) for op in (
        "ReduceMean", "ReduceSum", "ReduceMax", "ReduceMin", "ReduceProd", "ReduceL2")],
    *[case(op, [f32(2, 3, 4), i64(-1, 0)], id=f"{op}-input") for op in (
        "ReduceMean", "ReduceSum", "ReduceMax", "ReduceMin", "ReduceProd", "ReduceL2")],
    case("ReduceSum", [f32(2, 3, 4)], id="ReduceSum-bare"),
    case("ArgMax", [f32(3, 5)]),
    case("ArgMax", [f32(3, 5)], id="ArgMax-attrs", axis=1, keepdims=0),
    case("ArgMin", [f32(3, 5)], axis=-1),
    case("CumSum", [f32(3, 5), np.asarray(1, dtype=np.int64)]),
    case("TopK", [f32(3, 9), i64(4)], outputs=2),
    case("TopK", [f32(3, 9), i64(2)], outputs=2, id="TopK-smallest", axis=0, largest=0, sorted=1),
    # -- concat / split ---------------------------------------------------
    case("Concat", [X, X, X], axis=1),
    case("Concat", [f32(2, 3), f32(4, 3)], id="Concat-bare"),
    case("Split", [f32(6, 4)], outputs=3),
    case("Split", [f32(6, 4)], outputs=2, id="Split-attr", split=[2, 4], axis=0),
    case("Split", [f32(3, 6), i64(1, 2, 3)], outputs=3, id="Split-input", axis=1),
    # -- data movement ----------------------------------------------------
    case("Reshape", [X], id="Reshape-attr", shape=[0, -1, 8]),
    case("Reshape", [X, i64(1, 4, 64)], id="Reshape-input"),
    case("Reshape", [X, i64(1, 4, 64)], id="Reshape-both", shape=[1, 4, 64]),
    case("Transpose", [X], perm=[0, 2, 3, 1]),
    case("Transpose", [f32(2, 3, 4)], id="Transpose-bare"),
    case("Flatten", [X]),
    case("Flatten", [X], id="Flatten-axis", axis=2),
    case("Squeeze", [f32(1, 3, 1, 4)], id="Squeeze-bare"),
    case("Squeeze", [f32(1, 3, 1, 4)], id="Squeeze-attr", axes=[0]),
    case("Squeeze", [f32(1, 3, 1, 4), i64(2)], id="Squeeze-input"),
    case("Unsqueeze", [f32(3, 4)], id="Unsqueeze-attr", axes=[0, 3]),
    case("Unsqueeze", [f32(3, 4), i64(-1)], id="Unsqueeze-input"),
    case("Slice", [X], id="Slice-attrs", starts=[1, 2], ends=[3, 6], axes=[1, 2]),
    case("Slice", [X, i64(0, 1), i64(4, 7), i64(2, 3), i64(2, 3)], id="Slice-inputs"),
    case("Slice", [X, i64(1), i64(1 << 40)], id="Slice-inputs-default-axes"),
    case("Gather", [f32(5, 4), IDX]),
    case("Gather", [f32(5, 4), IDX], id="Gather-axis", axis=1),
    case("GatherElements", [f32(3, 3), i64(0, 2, 1).reshape(1, 3)], axis=0),
    case("EmbeddingLookup", [f32(10, 4), i64(3, 1, 7, 7)]),
    case("Expand", [f32(3, 1), i64(2, 3, 4)]),
    case("Tile", [f32(2, 3), i64(2, 2)]),
    case("Pad", [X], id="Pad-attrs", pads=[0, 0, 1, 2, 0, 0, 1, 2], value=1.5),
    case("Pad", [X, i64(0, 0, 1, 1, 0, 0, 1, 1)], id="Pad-input-pads"),
    case("Pad", [X, i64(0, 0, 1, 1, 0, 0, 1, 1), np.float32(2.5)], id="Pad-input-value"),
    case("Pad", [X], id="Pad-reflect", pads=[0, 0, 1, 1, 0, 0, 1, 1], mode="reflect"),
    case("DepthToSpace", [X], blocksize=2),
    case("DepthToSpace", [X], id="DepthToSpace-crd", blocksize=2, mode="CRD"),
    case("SpaceToDepth", [X], blocksize=2),
    case("Resize", [X], id="Resize-attr", scales=[1.0, 1.0, 2.0, 2.0], mode="nearest"),
    case("Resize", [X, f32(0), np.asarray([1, 1, 2, 3], dtype=np.float32)], id="Resize-input"),
    case("Resize", [X, None, np.asarray([1, 1, 2, 2], dtype=np.float32)], id="Resize-no-roi"),
    case("Upsample", [X], id="Upsample-attr", scales=[1.0, 1.0, 2.0, 2.0]),
    case("Upsample", [X, np.asarray([1, 1, 3, 2], dtype=np.float32)], id="Upsample-input"),
    # -- metadata / constants --------------------------------------------
    case("Shape", [X]),
    case("Size", [X]),
    case("Cast", [f32(3, 4)]),
    case("Cast", [f32(3, 4)], id="Cast-int", to="int64"),
    case("ConstantOfShape", [i64(2, 3)], id="ConstantOfShape-bare"),
    case("ConstantOfShape", [i64(2, 3)], id="ConstantOfShape-float", value=1.5),
    case("ConstantOfShape", [i64(2, 3)], id="ConstantOfShape-int-tensor", value=i64(7)),
    case("ConstantOfShape", [i64(2, 3)], id="ConstantOfShape-float-tensor",
         value=np.asarray([0.25], dtype=np.float32)),
    case("OneHot", [i64(0, 2, 1), i64(4), np.asarray([0.5, 2.0], dtype=np.float32)]),
    case("OneHot", [i64(0, 2, 1), i64(3), np.asarray([0, 1], dtype=np.float32)],
         id="OneHot-axis", axis=0),
    case("Constant", [], id="Constant-matrix", value=f32(2, 3)),
    case("Constant", [], id="Constant-one-element", value=i64(5)),
    case("Constant", [], id="Constant-scalar", value=np.asarray(2.5, dtype=np.float32)),
    # an attention-mask-like constant: non-finite values must print as code
    case("Constant", [], id="Constant-non-finite",
         value=np.asarray([[-np.inf, np.nan, 1.0], [0.0, np.inf, -0.0]], dtype=np.float32)),
    case("Range", [np.asarray(1), np.asarray(9), np.asarray(2)]),
    case("NonZero", [flags(3, 4)]),
    case("Identity", [X]),
    case("Dropout", [X], outputs=2, ratio=0.5),
    case("Dropout", [X], id="Dropout-one-output"),
]


def _build(op, inputs, outputs, attrs, sandwich=False, constants=False):
    """A model holding the one example node (optionally between two
    ``Mul``-by-one nodes, so the node sits mid-graph for the plan; optionally
    with every input but the first as an initializer, not a graph input)."""
    b = GraphBuilder("case", seed=0)
    names, feed = [], {}
    for index, array in enumerate(inputs):
        if array is None:
            names.append("")
            continue
        array = np.asarray(array)
        if constants and index:
            names.append(b.initializer(f"in{index}", array))
            continue
        names.append(b.input(f"in{index}", array.shape, numpy_to_dtype(array.dtype)))
        feed[f"in{index}"] = array
    if sandwich:
        one = b.const(np.float32(1.0))
        names[0] = b.node("Mul", [names[0], one])
    outs = b.node(op, names, num_outputs=outputs, name="node", **attrs)
    outs = [outs] if outputs == 1 else outs
    if sandwich:
        outs = [b.node("Mul", [outs[0], one])]
    for name in outs:
        b.output(name)
    return b.build(validate=False, infer=False), feed


def _retyped(inputs, dtype, first_only=False):
    """``inputs`` with its float32 operands (or only a leading one) cast to ``dtype``."""
    return [np.asarray(a).astype(dtype)
            if np.asarray(a).dtype == np.float32 and not (first_only and index) else a
            for index, a in enumerate(inputs)]


def _assert_identical(got, want, what):
    assert set(got) == set(want), what
    for name, expected in want.items():
        actual, expected = np.asarray(got[name]), np.asarray(expected)
        assert actual.dtype == expected.dtype, f"{what}: {name} dtype {actual.dtype} != {expected.dtype}"
        assert actual.shape == expected.shape, f"{what}: {name} shape {actual.shape} != {expected.shape}"
        assert actual.tobytes() == expected.tobytes(), f"{what}: {name} differs"


def _plans(model):
    """The plan, and a plan running the traced twin of its source."""
    from repro.observability import Tracer

    yield "plan", ExecutionPlan(model)
    traced = ExecutionPlan(model)
    traced.enable_tracing(Tracer(capacity=64))
    yield "plan(traced)", traced


@pytest.mark.parametrize("op, inputs, outputs, attrs", CASES)
def test_interpreter_plan_and_generated_code_agree(op, inputs, outputs, attrs):
    model, feed = _build(op, inputs, outputs, attrs)
    reference = GraphExecutor(model).run(feed)

    for what, plan in _plans(model):
        _assert_identical(plan.run(feed), reference, f"{what} cold")
        _assert_identical(plan.run(feed), reference, f"{what} warm")
        bound = {name: np.empty_like(np.asarray(value)) for name, value in reference.items()}
        _assert_identical(plan.run(feed, out=bound), reference, f"{what} bound outputs")
        _assert_identical(plan.run(feed, out=bound), reference, f"{what} bound outputs, warm")

    (node,) = model.graph.nodes
    scope = {"np": np, "F": F, "inputs": feed}
    exprs = [f"inputs[{name!r}]" for name in node.present_inputs]
    variables = [f"v_{index}" for index, name in enumerate(node.outputs) if name]
    for stmt in lower_node(node, exprs, variables):
        exec(compile(stmt, "<generated>", "exec"), scope)  # noqa: S102 - our own generated code
    generated = {name: scope[var] for name, var in
                 zip([o for o in node.outputs if o], variables)}
    _assert_identical(generated, reference, "generated code")


_SANDWICHED = [p for p in CASES if p.values[2] == 1 and p.values[1]]


@pytest.mark.parametrize("op, inputs, outputs, attrs", _SANDWICHED)
def test_plan_agrees_mid_graph(op, inputs, outputs, attrs):
    """Mid-graph the node computes into a slab range, in place on the range
    of an input dying at it, or allocates — whichever its declaration and
    the shape table allow."""
    model, feed = _build(op, inputs, outputs, attrs, sandwich=True)
    reference = GraphExecutor(model).run(feed)
    for what, plan in _plans(model):
        for round_ in ("cold", "warm", "warm again"):
            _assert_identical(plan.run(feed), reference, f"{what} {round_}")


@pytest.mark.parametrize("dtype", ["float64", "float16", "int64"])
def test_plan_agrees_mid_graph_when_the_feed_is_retyped(dtype):
    """The plan sizes slab views and in-place destinations from the shape table for
    the dtype that was fed, not the declared one (serving accepts a float64
    feed for a float32 model): re-type each case's first operand."""
    for op, inputs, outputs, attrs in (p.values for p in _SANDWICHED):
        if np.asarray(inputs[0]).dtype != np.float32:
            continue
        model, feed = _build(op, _retyped(inputs, dtype, first_only=True), outputs, attrs,
                             sandwich=True)
        with np.errstate(all="ignore"):
            try:
                reference = GraphExecutor(model).run(feed)
            except ExecutionError:
                continue  # the kernel rejects the dtype outright
            plan = ExecutionPlan(model)
            for round_ in ("first run", "second run"):
                _assert_identical(plan.run(feed), reference, f"{op} {dtype} {round_}")


#: cases printed as one ``F.<fn>(...)`` call (not by an ``emit`` of their own)
_CALLS = [p for p in CASES if get_schema(p.values[0]).emit is None]


def _plain(value):
    return list(value) if isinstance(value, (list, tuple)) else value


@pytest.mark.parametrize("op, inputs, outputs, attrs", _CALLS)
def test_render_leaves_out_only_the_callees_defaults(op, inputs, outputs, attrs):
    """A keyword missing from the generated call is one whose value is the
    called function's own signature default, so the call means the same."""
    model, _ = _build(op, inputs, outputs, attrs)
    (node,) = model.graph.nodes
    schema = get_schema(op)
    keywords = _resolve(schema, node, KeyError)[3]
    exprs = [f"v_in{index}" for index, _ in enumerate(node.present_inputs)]
    variables = [f"v_{index}" for index, name in enumerate(node.outputs) if name]
    (stmt,) = lower_node(node, exprs, variables)
    passed = {kw.arg for kw in ast.parse(stmt).body[0].value.keywords}
    signature = inspect.signature(getattr(F, schema.fn)).parameters
    for key, value in keywords.items():
        if key in passed:
            continue
        default = signature[key].default
        assert _plain(value) == _plain(default), (op, key, value, default)
        assert type(_plain(value)) is type(_plain(default)), (op, key, value, default)


def test_defaulted_keywords_are_left_out():
    node = OpNode("Conv", ["x", "w", "b"], ["y"])
    assert lower_node(node, ["v_x", "v_w", "v_b"], ["v_y"]) == [
        "v_y = F.conv2d(v_x, v_w, v_b)"]
    # The declaration's default is not the callee's: F.split's is parts=None.
    split = OpNode("Split", ["x"], ["a", "b"])
    assert lower_node(split, ["v_x"], ["v_a", "v_b"]) == ["v_a, v_b = F.split(v_x, parts=2)"]


def test_every_registered_op_has_a_case():
    """Completeness: registered means runnable and lowerable, because the
    differential above binds, plans and renders every case."""
    covered = {p.values[0] for p in CASES}
    assert covered == set(registered_ops())


# ---------------------------------------------------------------------------
# ONNX defaults, written out independently of the schema
# ---------------------------------------------------------------------------
_POOL_DEFAULTS = {"kernel_shape": [1, 1], "strides": [1, 1], "pads": [0, 0, 0, 0], "ceil_mode": False}
_REDUCE_DEFAULTS = {"axes": None, "keepdims": True}
ONNX_DEFAULTS = {
    "Conv": {"strides": [1, 1], "pads": [0, 0, 0, 0], "dilations": [1, 1], "group": 1},
    "ConvTranspose": {"strides": [1, 1], "pads": [0, 0, 0, 0], "output_padding": [0, 0],
                      "group": 1},
    "MaxPool": _POOL_DEFAULTS,
    "AveragePool": {**_POOL_DEFAULTS, "count_include_pad": False},
    "Gemm": {"alpha": 1.0, "beta": 1.0, "transA": False, "transB": False},
    "BatchNormalization": {"epsilon": 1e-5},
    "LayerNormalization": {"axis": -1, "epsilon": 1e-5},
    "InstanceNormalization": {"epsilon": 1e-5},
    "LeakyRelu": {"alpha": 0.01},
    "Elu": {"alpha": 1.0},
    # ONNX's float32 constants, rounded as the kernel has always had them.
    "Selu": {"alpha": 1.6732632, "gamma": 1.0507010},
    "HardSigmoid": {"alpha": 0.2, "beta": 0.5},
    "Clip": {"min": None, "max": None},
    "Softmax": {"axis": -1},
    "LogSoftmax": {"axis": -1},
    **{op: _REDUCE_DEFAULTS for op in (
        "ReduceMean", "ReduceSum", "ReduceMax", "ReduceMin", "ReduceProd", "ReduceL2")},
    "ArgMax": {"axis": 0, "keepdims": True},
    "ArgMin": {"axis": 0, "keepdims": True},
    "TopK": {"axis": -1, "largest": True, "sorted": True},
    "Concat": {"axis": 0},   # required by ONNX; 0 here
    "Split": {"axis": 0, "split": None},
    "Reshape": {"shape": None},
    "Transpose": {"perm": None},
    "Flatten": {"axis": 1},
    "Squeeze": {"axes": None},
    "Unsqueeze": {"axes": None},
    "Slice": {"starts": None, "ends": None, "axes": None, "steps": None},
    "Gather": {"axis": 0},
    "GatherElements": {"axis": 0},
    "Pad": {"pads": None, "mode": "constant", "value": 0.0},
    "DepthToSpace": {"blocksize": 2, "mode": "DCR"},   # blocksize required by ONNX
    "SpaceToDepth": {"blocksize": 2},
    "Resize": {"scales": None},
    "Upsample": {"scales": None},
    "Cast": {"to": "float32"},   # required by ONNX; this IR names dtypes
    "ConstantOfShape": {"value": 0.0},
    "OneHot": {"axis": -1},
}


@pytest.mark.parametrize("op", sorted(ONNX_DEFAULTS))
def test_bare_node_normalises_to_onnx_defaults(op):
    node = OpNode(op, ["x"], ["y"])
    for attr, expected in ONNX_DEFAULTS[op].items():
        value = attr_value(node, attr)
        if isinstance(expected, list):
            value = list(value)
        assert value == expected and type(value) is type(expected), (op, attr, value)


def test_defaults_table_covers_every_declared_attribute():
    declared = {(op, p.attr) for op in registered_ops()
                for p in get_schema(op).params if p.attr and p.default is not None}
    listed = {(op, attr) for op, attrs in ONNX_DEFAULTS.items() for attr in attrs}
    # Required attributes (Einsum equation, Constant value) have no default.
    assert declared - listed <= {("Einsum", "equation"), ("Constant", "value")}


# ---------------------------------------------------------------------------
# Regressions: forms on which generated code used to disagree with the interpreter
# ---------------------------------------------------------------------------
def test_conv_transpose_group_reaches_generated_code():
    model, feed = _build("ConvTranspose", [X, f32(4, 2, 3, 3)], 1, {"group": 2})
    (node,) = model.graph.nodes
    with pytest.raises(ExecutionError, match="group=1"):
        GraphExecutor(model).run(feed)
    with pytest.raises(PlanError, match="group=1"):
        ExecutionPlan(model).run(feed)
    (stmt,) = lower_node(node, ["x", "w"], ["y"])
    assert "group=2" in stmt
    with pytest.raises(NotImplementedError, match="group=1"):
        exec(stmt, {"F": F, "np": np, "x": feed["in0"], "w": feed["in1"]})  # noqa: S102


def test_upsample_reads_scales_from_input_one():
    node = OpNode("Upsample", ["x", "scales"], ["y"])
    assert lower_node(node, ["v_x", "v_s"], ["v_y"]) == ["v_y = F.resize_nearest(v_x, v_s)"]
    resize = OpNode("Resize", ["x", "roi", "scales"], ["y"])
    assert lower_node(resize, ["v_x", "v_r", "v_s"], ["v_y"]) == [
        "v_y = F.resize_nearest(v_x, v_s)"]


@pytest.mark.parametrize("first, second", [([1], [True]), ([True], [1]),
                                           ((0.0, 1), (-0.0, 1)), ([2, 2], (2.0, 2))])
def test_literals_of_equal_lists_that_print_differently_stay_apart(first, second):
    """Literals of ``int`` lists are remembered; ``True == 1``, ``-0.0 == 0.0``
    and ``2.0 == 2`` must still print as themselves, in either order."""
    expected = [f"[{', '.join(map(repr, value))}]" for value in (first, second)]
    assert [_literal(first, KeyError), _literal(second, KeyError)] == expected
    assert [_literal(first, KeyError), _literal(second, KeyError)] == expected


def test_absent_optional_inputs_keep_their_position():
    node = OpNode("Clip", ["x", "", "hi"], ["y"])
    assert lower_node(node, ["v_x", "v_hi"], ["v_y"]) == ["v_y = F.clip(v_x, None, v_hi)"]


def test_unsupported_ops_fail_with_one_message():
    node = OpNode("TotallyCustomOp", ["x"], ["y"], name="n0")
    b = GraphBuilder("custom", seed=0)
    b.output(b.node("TotallyCustomOp", [b.input("x", (1, 4))], name="n0"))
    model = b.build(validate=False, infer=False)
    message = r"no handlers for ops: \['TotallyCustomOp'\]"
    with pytest.raises(ExecutionError, match=message):
        GraphExecutor(model)
    with pytest.raises(PlanError, match=message):
        ExecutionPlan(model)
    with pytest.raises(LoweringError, match=message):
        lower_node(node, ["v_x"], ["v_y"])
    with pytest.raises(KeyError, match=message):
        bind(node)
    # check_supported=False defers the interpreter's failure to the node.
    executor = GraphExecutor(model, check_supported=False)
    with pytest.raises(ExecutionError, match=message):
        executor.run({"x": np.zeros((1, 4), dtype=np.float32)})


def test_scatternd_is_not_registered():
    assert "ScatterND" not in registered_ops()
