"""Unit tests for the IR core: dtypes, tensors, attributes, nodes, models."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ir import (
    Attribute,
    AttributeType,
    DType,
    Graph,
    Model,
    OpNode,
    TensorInfo,
    dtype_to_numpy,
    numpy_to_dtype,
)
from repro.ir.dtypes import parse_dtype, promote
from repro.ir.tensor import broadcast_shapes, conv_output_dim, normalize_shape, num_elements, pool_output_dim


# ---------------------------------------------------------------------------
# dtypes
# ---------------------------------------------------------------------------
class TestDTypes:
    def test_roundtrip_numpy(self):
        for dtype in DType:
            assert numpy_to_dtype(dtype_to_numpy(dtype)) is dtype

    def test_unknown_numpy_dtype_rejected(self):
        with pytest.raises(ValueError):
            numpy_to_dtype(np.dtype("complex128"))

    def test_parse_from_string(self):
        assert parse_dtype("float32") is DType.FLOAT32
        with pytest.raises(ValueError):
            parse_dtype("floatzz")

    def test_is_floating_and_integer(self):
        assert DType.FLOAT32.is_floating and not DType.FLOAT32.is_integer
        assert DType.INT64.is_integer and not DType.INT64.is_floating

    def test_itemsize(self):
        assert DType.FLOAT32.itemsize == 4
        assert DType.INT64.itemsize == 8
        assert DType.FLOAT16.itemsize == 2

    def test_promotion_float_beats_int(self):
        assert promote(DType.INT8, DType.FLOAT32) is DType.FLOAT32
        assert promote(DType.FLOAT32, DType.FLOAT32) is DType.FLOAT32
        assert promote(DType.BOOL, DType.INT32) is DType.INT32
        # ... the way numpy does: float32 cannot hold every int64
        assert promote(DType.INT64, DType.FLOAT32) is DType.FLOAT64
        with pytest.raises(ValueError):
            promote(DType.UINT8, DType.INT8)  # int16 has no IR name


# ---------------------------------------------------------------------------
# tensor shapes
# ---------------------------------------------------------------------------
class TestShapes:
    def test_normalize_rejects_negative(self):
        with pytest.raises(ValueError):
            normalize_shape([1, -2])

    def test_normalize_preserves_none(self):
        assert normalize_shape([None, 3]) == (None, 3)
        assert normalize_shape(None) is None

    def test_num_elements(self):
        assert num_elements((2, 3, 4)) == 24
        assert num_elements((2, None)) is None
        assert num_elements(()) == 1

    def test_broadcast_simple(self):
        assert broadcast_shapes((1, 3, 4), (3, 4)) == (1, 3, 4)
        assert broadcast_shapes((5, 1), (1, 6)) == (5, 6)

    def test_broadcast_missing_dims_act_as_one(self):
        assert broadcast_shapes((1, 64, 256), (256,)) == (1, 64, 256)

    def test_broadcast_incompatible(self):
        with pytest.raises(ValueError):
            broadcast_shapes((2, 3), (4, 5))

    def test_conv_output_dim(self):
        assert conv_output_dim(32, 3, stride=1, pad_begin=1, pad_end=1) == 32
        assert conv_output_dim(32, 3, stride=2, pad_begin=1, pad_end=1) == 16
        assert conv_output_dim(None, 3) is None

    def test_pool_output_dim_ceil(self):
        assert pool_output_dim(16, 3, stride=2, ceil_mode=False) == 7
        assert pool_output_dim(16, 3, stride=2, ceil_mode=True) == 8


class TestTensorInfo:
    def test_basic_properties(self):
        info = TensorInfo("x", DType.FLOAT32, (1, 3, 8, 8))
        assert info.rank == 4
        assert info.num_elements == 192
        assert info.nbytes == 192 * 4
        assert info.is_static()

    def test_dynamic_shape(self):
        info = TensorInfo("x", DType.FLOAT32, (None, 3))
        assert info.num_elements is None
        assert not info.is_static()

    def test_requires_name(self):
        with pytest.raises(ValueError):
            TensorInfo("")

    def test_with_shape_and_name(self):
        info = TensorInfo("x", DType.INT64, (4,))
        assert info.with_shape((2, 2)).shape == (2, 2)
        assert info.with_name("y").name == "y"

    def test_dict_roundtrip(self):
        info = TensorInfo("x", DType.FLOAT32, (1, None, 4))
        assert TensorInfo.from_dict(info.to_dict()) == info

    @pytest.mark.parametrize("dtype, shape, elements, nbytes", [
        (DType.FLOAT32, (2, 3), 6, 24),
        (DType.INT64, (), 1, 8),
        (DType.BOOL, (5, 0), 0, 0),
        (DType.FLOAT32, (None, 3), None, None),
        (DType.FLOAT16, None, None, None),
    ])
    def test_sizes_are_computed_once_and_stay_out_of_equality(self, dtype, shape,
                                                               elements, nbytes):
        info = TensorInfo("x", dtype, shape)
        for _ in range(2):  # the second read is the remembered value
            assert (info.num_elements, info.nbytes) == (elements, nbytes)
        fresh = TensorInfo("x", dtype, shape)
        assert info == fresh and hash(info) == hash(fresh)
        if shape is not None:
            assert info.with_shape((7,) + tuple(shape)).num_elements == (
                None if elements is None else 7 * elements)


# ---------------------------------------------------------------------------
# attributes
# ---------------------------------------------------------------------------
class TestAttributes:
    def test_infer_int_float_string_bool(self):
        assert Attribute.from_value("a", 3).type is AttributeType.INT
        assert Attribute.from_value("a", 3.5).type is AttributeType.FLOAT
        assert Attribute.from_value("a", "x").type is AttributeType.STRING
        assert Attribute.from_value("a", True).type is AttributeType.BOOL

    def test_infer_lists(self):
        assert Attribute.from_value("a", [1, 2]).type is AttributeType.INTS
        assert Attribute.from_value("a", [1.0, 2.5]).type is AttributeType.FLOATS
        assert Attribute.from_value("a", ["x", "y"]).type is AttributeType.STRINGS

    def test_tensor_attribute_roundtrip(self):
        arr = np.arange(6, dtype=np.float32).reshape(2, 3)
        attr = Attribute.from_value("value", arr)
        restored = Attribute.from_dict(attr.to_dict())
        np.testing.assert_array_equal(restored.value, arr)

    def test_copy_is_independent(self):
        attr = Attribute.from_value("a", [1, 2, 3])
        clone = attr.copy()
        clone.value.append(4)
        assert attr.value == [1, 2, 3]

    def test_coercion(self):
        assert Attribute("a", AttributeType.INT, 3.7).value == 3
        assert Attribute("a", AttributeType.INTS, (1.0, 2.0)).value == [1, 2]


# ---------------------------------------------------------------------------
# nodes
# ---------------------------------------------------------------------------
class TestOpNode:
    def test_create_with_attrs(self):
        node = OpNode.create("Conv", ["x", "w"], ["y"], kernel_shape=[3, 3], group=1)
        assert node.get_attr("kernel_shape") == [3, 3]
        assert node.get_attr("missing", 7) == 7
        assert node.has_attr("group")

    def test_auto_name_unique(self):
        a = OpNode("Relu", ["x"], ["y1"])
        b = OpNode("Relu", ["x"], ["y2"])
        assert a.name != b.name

    def test_rename_input_output(self):
        node = OpNode("Add", ["a", "b", "a"], ["c"])
        assert node.rename_input("a", "z") == 2
        assert node.inputs == ["z", "b", "z"]
        assert node.rename_output("c", "d") == 1

    def test_present_inputs_filters_optional(self):
        node = OpNode("Clip", ["x", "", "hi"], ["y"])
        assert node.present_inputs == ["x", "hi"]

    def test_copy_deep(self):
        node = OpNode.create("Conv", ["x", "w"], ["y"], kernel_shape=[3, 3])
        clone = node.copy(name="other")
        clone.set_attr("kernel_shape", [5, 5])
        assert node.get_attr("kernel_shape") == [3, 3]
        assert clone.name == "other"

    def test_dict_roundtrip(self):
        node = OpNode.create("Gemm", ["a", "b", "c"], ["y"], alpha=1.0, transB=1)
        restored = OpNode.from_dict(node.to_dict())
        assert restored.op_type == "Gemm"
        assert restored.get_attr("transB") == 1

    def test_requires_op_type_and_primary_output(self):
        with pytest.raises(ValueError):
            OpNode("", ["x"], ["y"])
        with pytest.raises(ValueError):
            OpNode("Relu", ["x"], []).primary_output


# ---------------------------------------------------------------------------
# graph / model containers
# ---------------------------------------------------------------------------
class TestGraphContainer:
    def _graph(self) -> Graph:
        g = Graph(name="g")
        g.inputs.append(TensorInfo("x", DType.FLOAT32, (1, 4)))
        g.add_initializer("w", np.ones((4, 2), dtype=np.float32))
        g.add_node(OpNode("MatMul", ["x", "w"], ["y"], name="mm"))
        g.add_node(OpNode("Relu", ["y"], ["z"], name="act"))
        g.outputs.append(TensorInfo("z", DType.FLOAT32, (1, 2)))
        return g

    def test_producers_consumers(self):
        g = self._graph()
        assert g.producers()["y"].name == "mm"
        assert [n.name for n in g.consumers()["y"]] == ["act"]

    def test_node_lookup_and_removal(self):
        g = self._graph()
        assert g.node_by_name("act").op_type == "Relu"
        with pytest.raises(KeyError):
            g.node_by_name("nope")
        assert g.remove_nodes(["act"]) == 1
        assert len(g) == 1

    def test_value_names_and_histogram(self):
        g = self._graph()
        assert {"x", "w", "y", "z"} <= g.all_value_names()
        assert g.op_type_histogram() == {"MatMul": 1, "Relu": 1}

    def test_copy_independent(self):
        g = self._graph()
        g2 = g.copy()
        g2.initializers["w"][0, 0] = 99.0
        assert g.initializers["w"][0, 0] == 1.0

    def test_model_wrapper(self):
        model = Model(graph=self._graph())
        assert model.name == "g"
        assert model.num_nodes == 2
        assert model.copy().num_nodes == 2
