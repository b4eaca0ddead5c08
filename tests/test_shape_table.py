"""The shape table is pinned to the kernels.

:mod:`repro.ir.shape_inference` is a hand-written table beside the kernels
(deriving it from them was measured at 2.5-4x the cost per call).  These
tests run every example node of ``tests/test_op_registry.py`` and every
value of the zoo and require that an inferred ``(shape, dtype)`` is what the
kernel produced, or is explicitly unknown (``None``) — never a wrong
concrete answer, which constant propagation would fold into the graph and
the process backend would size a tensor slot from.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.ir import GraphBuilder, infer_shapes
from repro.ir.dtypes import numpy_to_dtype
from repro.ir.tensor import is_static
from repro.models import build_model, list_models
from repro.passes import optimize_model
from repro.ir.shape_inference import ShapeInferenceError
from repro.runtime import GraphExecutor
from repro.runtime.executor import ExecutionError
from repro.serving import example_inputs

from tests.test_op_registry import CASES, _build, _retyped


def _assert_inferred_matches_executed(graph, feed, claimed_only=False):
    """``claimed_only`` skips a value whose shape is wholly unknown: such an
    entry claims nothing (its dtype is a guess nobody may size a buffer by)."""
    names = [out for node in graph.nodes for out in node.outputs if out]
    executed = GraphExecutor(graph).run(feed, outputs=names)
    for name in names:
        info, actual = graph.value_info.get(name), np.asarray(executed[name])
        if info is None or (claimed_only and info.shape is None):
            continue
        assert info.dtype == numpy_to_dtype(actual.dtype), f"{name}: {info} vs {actual.dtype}"
        if info.shape is not None:
            assert len(info.shape) == actual.ndim and all(
                dim in (None, size) for dim, size in zip(info.shape, actual.shape)
            ), f"{name}: {info} vs {actual.shape}"
    return graph.value_info


@pytest.mark.parametrize("constants", [False, True], ids=["inputs", "constants"])
@pytest.mark.parametrize("op, inputs, outputs, attrs", CASES)
def test_inferred_info_of_every_op_case_matches_the_kernel(op, inputs, outputs, attrs, constants):
    """``constants`` turns every input but the first into an initializer, which
    is what the table's attribute-or-constant-input branches read."""
    model, feed = _build(op, inputs, outputs, attrs, constants=constants)
    infer_shapes(model.graph)
    _assert_inferred_matches_executed(model.graph, feed)


@pytest.mark.parametrize("which", ["every_input", "first_input"])
@pytest.mark.parametrize("dtype", ["float64", "float16", "int64", "int32", "int8", "uint8", "bool"])
def test_inferred_dtype_follows_the_kernel_off_the_declared_dtype(dtype, which):
    """The execution plan sizes ``out=`` buffers from this table for whatever
    dtype a feed has (serving accepts a float64 feed for a float32 model), so
    the table must know which kernels compute in float32 regardless and which
    follow numpy's promotion — or claim nothing.  Every case re-typed: all
    its float32 operands, or only the first (a feed against float32 weights)."""
    checked = 0
    for op, inputs, outputs, attrs in (p.values for p in CASES):
        cast = _retyped(inputs, dtype, first_only=which == "first_input")
        for constants in (False, True):
            model, feed = _build(op, cast, outputs, attrs, constants=constants)
            try:
                infer_shapes(model.graph)
                with np.errstate(all="ignore"):
                    _assert_inferred_matches_executed(model.graph, feed, claimed_only=True)
            except (ShapeInferenceError, ExecutionError):
                continue  # the kernel (or the table) rejects the dtype outright
            checked += 1
    assert checked > len(CASES)


@pytest.mark.parametrize("name", list_models())
def test_inferred_info_of_every_zoo_value_matches_the_kernel(name):
    model = build_model(name, variant="small")
    feed = example_inputs(model)
    _assert_inferred_matches_executed(model.graph, feed)
    # ... and what the pruning sweep recorded, constants' infos included.
    _assert_inferred_matches_executed(optimize_model(model)[0].graph, feed)


_VALUE_DEPENDENT = {
    "NonZero": [np.asarray([[1, 0], [0, 3]], dtype=np.float32)],
    "Range": [np.asarray(1), np.asarray(9), np.asarray(2)],
    "Reshape": [np.zeros((2, 6), dtype=np.float32), np.asarray([3, 4])],
    "Pad": [np.zeros((2, 6), dtype=np.float32), np.asarray([0, 1, 0, 1])],
    "ReduceSum": [np.zeros((2, 6), dtype=np.float32), np.asarray([1])],
    "Squeeze": [np.zeros((1, 6), dtype=np.float32), np.asarray([0])],
}


@pytest.mark.parametrize("op", sorted(_VALUE_DEPENDENT))
def test_value_dependent_shapes_infer_unknown(op):
    """The shape depends on a run-time value: nothing concrete may be claimed."""
    model, feed = _build(op, _VALUE_DEPENDENT[op], 1, {})
    infer_shapes(model.graph)
    (info,) = _assert_inferred_matches_executed(model.graph, feed).values()
    assert not is_static(info.shape)


def test_constant_parameters_the_cases_do_not_reach():
    """Float ``Range`` bounds and a ``Resize`` that has to round."""
    b = GraphBuilder("extra", seed=0)
    x = b.input("x", (1, 2, 5, 5))
    floats = [b.const(np.asarray(v, dtype=np.float32)) for v in (0.0, 2.5, 0.5)]
    b.output(b.node("Range", floats))
    b.output(b.node("Resize", [x], scales=[1.0, 1.0, 1.5, 1.5]))
    model = b.build()
    infos = _assert_inferred_matches_executed(
        model.graph, {"x": np.zeros((1, 2, 5, 5), dtype=np.float32)})
    assert all(is_static(infos[name].shape) for name in model.graph.output_names)
