"""Tests for the GraphBuilder, shape inference, validation and serialization."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ir import (
    DType,
    GraphBuilder,
    ValidationError,
    infer_shapes,
    load_model,
    model_from_dict,
    model_to_dict,
    save_model,
    validate_graph,
    validate_model,
)
from repro.ir.model import Graph
from repro.ir.node import OpNode
from repro.ir.opset import OpKind, get_schema, has_schema, registered_ops
from repro.ir.tensor import TensorInfo

from tests.conftest import build_diamond_model


# ---------------------------------------------------------------------------
# opset registry
# ---------------------------------------------------------------------------
class TestOpset:
    def test_core_ops_registered(self):
        for op in ("Conv", "MatMul", "Relu", "Concat", "Softmax", "Reshape",
                   "BatchNormalization", "Gather", "Slice"):
            assert has_schema(op)

    def test_schema_arity(self):
        conv = get_schema("Conv")
        assert conv.accepts_arity(2) and conv.accepts_arity(3)
        assert not conv.accepts_arity(1)
        concat = get_schema("Concat")
        assert concat.accepts_arity(7)  # unbounded max

    def test_kind_queries(self):
        assert get_schema("Conv").kind is OpKind.CONV
        assert get_schema("Relu").kind is OpKind.ACTIVATION
        assert len(registered_ops()) > 60

    def test_unknown_schema_raises(self):
        with pytest.raises(KeyError):
            get_schema("TotallyNotAnOp")


# ---------------------------------------------------------------------------
# builder
# ---------------------------------------------------------------------------
class TestGraphBuilder:
    def test_builds_valid_model(self):
        model = build_diamond_model()
        validate_model(model)
        assert model.num_nodes > 5

    def test_conv_shape_tracking(self):
        b = GraphBuilder("t", seed=0)
        x = b.input("x", (1, 3, 32, 32))
        y = b.conv(x, 8, kernel=3, strides=2, pads=1)
        assert b.shapes[y] == (1, 8, 16, 16)

    def test_weight_determinism(self):
        m1 = build_diamond_model()
        m2 = build_diamond_model()
        for name, arr in m1.graph.initializers.items():
            np.testing.assert_array_equal(arr, m2.graph.initializers[name])

    def test_split_and_slice_shapes(self):
        b = GraphBuilder("t", seed=0)
        x = b.input("x", (1, 8, 4, 4))
        parts = b.split(x, 2, axis=1)
        assert len(parts) == 2
        assert b.shapes[parts[0]] == (1, 4, 4, 4)
        sl = b.slice(x, starts=[0], ends=[2], axes=[1])
        assert b.shapes[sl] == (1, 2, 4, 4)

    def test_output_records_shape(self):
        b = GraphBuilder("t", seed=0)
        x = b.input("x", (1, 4))
        y = b.relu(x)
        b.output(y)
        model = b.build()
        assert model.graph.outputs[0].shape == (1, 4)

    def test_fresh_names_unique(self):
        b = GraphBuilder("t", seed=0)
        names = {b.fresh("conv") for _ in range(50)}
        assert len(names) == 50


# ---------------------------------------------------------------------------
# shape inference
# ---------------------------------------------------------------------------
class TestShapeInference:
    def test_diamond_all_static(self, diamond_model):
        graph = diamond_model.graph
        infer_shapes(graph, strict=True)
        for node in graph.nodes:
            for out in node.outputs:
                if out:
                    info = graph.value_info.get(out)
                    assert info is not None and info.shape is not None, out

    def test_conv_inference(self):
        b = GraphBuilder("t", seed=0)
        x = b.input("x", (1, 3, 14, 14))
        y = b.conv(x, 6, kernel=5, strides=1, pads=2)
        b.output(y)
        graph = b.build().graph
        assert graph.value_info[y].shape == (1, 6, 14, 14)

    def test_matmul_mismatch_detected(self):
        g = Graph(name="bad")
        g.inputs.append(TensorInfo("a", DType.FLOAT32, (2, 3)))
        g.inputs.append(TensorInfo("b", DType.FLOAT32, (4, 5)))
        g.add_node(OpNode("MatMul", ["a", "b"], ["c"], name="mm"))
        g.outputs.append(TensorInfo("c", DType.FLOAT32, None))
        from repro.ir.shape_inference import ShapeInferenceError

        with pytest.raises(ShapeInferenceError):
            infer_shapes(g, strict=True)

    def test_reduce_and_transpose(self):
        b = GraphBuilder("t", seed=0)
        x = b.input("x", (2, 3, 5))
        red = b.reduce_mean(x, axes=[-1], keepdims=True)
        tr = b.transpose(x, [2, 0, 1])
        b.output(red)
        b.output(tr)
        graph = b.build().graph
        assert graph.value_info[red].shape == (2, 3, 1)
        assert graph.value_info[tr].shape == (5, 2, 3)

    def test_gather_embedding_shape(self):
        b = GraphBuilder("t", seed=0)
        ids = b.input("ids", (1, 7), dtype=DType.INT64)
        table = b.initializer("table", np.zeros((10, 4), dtype=np.float32))
        emb = b.gather(table, ids, axis=0)
        b.output(emb)
        graph = b.build().graph
        assert graph.value_info[emb].shape == (1, 7, 4)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------
class TestValidation:
    def test_detects_dangling_input(self):
        g = Graph(name="bad")
        g.add_node(OpNode("Relu", ["ghost"], ["y"], name="r"))
        g.outputs.append(TensorInfo("y"))
        with pytest.raises(ValidationError, match="undefined value"):
            validate_graph(g)

    def test_detects_duplicate_producer(self):
        g = Graph(name="bad")
        g.inputs.append(TensorInfo("x"))
        g.add_node(OpNode("Relu", ["x"], ["y"], name="a"))
        g.add_node(OpNode("Sigmoid", ["x"], ["y"], name="b"))
        g.outputs.append(TensorInfo("y"))
        with pytest.raises(ValidationError, match="produced by both"):
            validate_graph(g)

    def test_detects_cycle(self):
        g = Graph(name="bad")
        g.add_node(OpNode("Relu", ["b"], ["a"], name="n1"))
        g.add_node(OpNode("Relu", ["a"], ["b"], name="n2"))
        g.outputs.append(TensorInfo("a"))
        with pytest.raises(ValidationError, match="cycle"):
            validate_graph(g)

    def test_detects_missing_output(self):
        g = Graph(name="bad")
        g.inputs.append(TensorInfo("x"))
        g.add_node(OpNode("Relu", ["x"], ["y"], name="r"))
        g.outputs.append(TensorInfo("never"))
        with pytest.raises(ValidationError, match="never produced"):
            validate_graph(g)

    def test_detects_bad_arity(self):
        g = Graph(name="bad")
        g.inputs.append(TensorInfo("x"))
        g.add_node(OpNode("Conv", ["x"], ["y"], name="c"))
        g.outputs.append(TensorInfo("y"))
        with pytest.raises(ValidationError, match="inputs"):
            validate_graph(g)

    def test_valid_model_passes(self, diamond_model):
        validate_model(diamond_model)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------
class TestSerialization:
    def test_dict_roundtrip_preserves_structure(self, diamond_model):
        restored = model_from_dict(model_to_dict(diamond_model))
        assert restored.num_nodes == diamond_model.num_nodes
        assert restored.graph.output_names == diamond_model.graph.output_names
        for name, arr in diamond_model.graph.initializers.items():
            np.testing.assert_allclose(restored.graph.initializers[name], arr)

    def test_file_roundtrip_gz(self, tmp_path, diamond_model):
        path = save_model(diamond_model, tmp_path / "m.json", compress=True)
        assert path.suffix == ".gz"
        restored = load_model(path)
        assert restored.num_nodes == diamond_model.num_nodes

    def test_file_roundtrip_plain(self, tmp_path, diamond_model):
        path = save_model(diamond_model, tmp_path / "m.json", compress=False)
        restored = load_model(path)
        assert restored.name == diamond_model.name

    def test_rejects_foreign_payload(self):
        with pytest.raises(ValueError):
            model_from_dict({"format": "other"})

    def test_roundtrip_execution_equivalence(self, diamond_model, tmp_path, rng):
        from repro.runtime import execute_model

        path = save_model(diamond_model, tmp_path / "m.json")
        restored = load_model(path)
        x = rng.standard_normal((1, 3, 16, 16)).astype(np.float32)
        out_a = execute_model(diamond_model, {"x": x})
        out_b = execute_model(restored, {"x": x})
        for key in out_a:
            np.testing.assert_allclose(out_a[key], out_b[key], rtol=1e-5, atol=1e-6)
