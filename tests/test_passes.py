"""Tests for graph pruning: constant propagation, identity removal and DCE in one sweep."""

from __future__ import annotations

import numpy as np
import pytest

import repro.passes as passes
from repro.clustering import clone_cheap_producers
from repro.ir import GraphBuilder, validate_graph
from repro.models import build_model, list_models
from repro.passes import follow_batch, optimize_model
from repro.pipeline import model_fingerprint, ramiel_compile
from repro.runtime import execute_model
from repro.serving import example_inputs


def _model_with_constant_chain():
    """y = relu(x) ; c = (2 + 3) * 4 broadcast-added to y via a foldable chain."""
    b = GraphBuilder("const_chain", seed=0)
    x = b.input("x", (1, 4))
    two = b.const(np.asarray(2.0, dtype=np.float32), prefix="two")
    three = b.const(np.asarray(3.0, dtype=np.float32), prefix="three")
    four = b.const(np.asarray(4.0, dtype=np.float32), prefix="four")
    summed = b.add(two, three)
    scaled = b.mul(summed, four)           # foldable to 20
    y = b.relu(x)
    out = b.add(y, scaled)
    b.output(out)
    return b.build()


def _model_with_dead_branch():
    b = GraphBuilder("dead", seed=0)
    x = b.input("x", (1, 4))
    live = b.relu(x)
    dead = b.sigmoid(x)
    dead = b.mul(dead, dead)  # never reaches an output
    b.output(live)
    return b.build()


def _model_with_identities():
    b = GraphBuilder("ident", seed=0)
    x = b.input("x", (1, 4))
    y = b.identity(x)
    y = b.dropout(y, ratio=0.3)
    y = b.relu(y)
    b.output(y)
    return b.build()


def _shape_gather_reshape_alternation(depth):
    """Each level's Reshape target is computed from the previous level's
    static shape, so level k can only be resolved once level k-1 is."""
    b = GraphBuilder("alternation", seed=0)
    x = b.input("x", (2, 3, 4))
    y = b.relu(x)
    rotate = b.const(np.asarray([1, 2, 0], dtype=np.int64))
    for _ in range(depth):
        y = b.node("Reshape", [y, b.gather(b.shape_of(y), rotate, axis=0)])
    b.output(b.relu(y))
    return b.build()


def _assert_bitwise(model, optimized, feed):
    before, after = execute_model(model, feed), execute_model(optimized, feed)
    assert set(before) == set(after)
    for key, expected in before.items():
        assert after[key].dtype == expected.dtype and after[key].shape == expected.shape, key
        assert after[key].tobytes() == expected.tobytes(), key


def _snapshot(graph):
    return ([node.to_dict() for node in graph.nodes],
            [(name, id(array)) for name, array in graph.initializers.items()])


class TestConstantFolding:
    def test_folds_constant_chain(self):
        optimized, stats = optimize_model(_model_with_constant_chain())
        assert stats["per_pass"] == {"folded": 2}
        # The folded value must now be available as an initializer.
        assert any(np.allclose(v, 20.0) for v in optimized.graph.initializers.values())

    def test_folding_preserves_semantics(self, rng):
        model = _model_with_constant_chain()
        x = rng.standard_normal((1, 4)).astype(np.float32)
        before = execute_model(model, {"x": x})
        optimized, _ = optimize_model(model)
        after = execute_model(optimized, {"x": x})
        for key in before:
            np.testing.assert_allclose(before[key], after[key], rtol=1e-5)

    def test_does_not_fold_graph_outputs_into_initializers(self):
        b = GraphBuilder("all_const", seed=0)
        c1 = b.const(np.asarray([1.0, 2.0], dtype=np.float32))
        c2 = b.const(np.asarray([3.0, 4.0], dtype=np.float32))
        out = b.add(c1, c2)
        b.output(out)
        optimized, stats = optimize_model(b.build())
        graph = optimized.graph
        validate_graph(graph)
        # The output keeps its producing node, which keeps its operands.
        assert stats["nodes_removed"] == 0
        assert [node.outputs for node in graph.nodes] == [[out]]
        assert set(graph.initializers) == {c1, c2}

    def test_size_cap_prevents_blowup(self):
        b = GraphBuilder("big_const", seed=0)
        x = b.input("x", (1,), dtype="int8")
        big = b.const(np.zeros(passes._MAX_FOLDED_ELEMENTS + 1, dtype=np.int8))
        doubled = b.add(big, big)      # all-constant, but too big to materialize
        b.output(b.add(x, doubled))
        _, stats = optimize_model(b.build())
        assert stats["nodes_removed"] == 0


class TestDeadCodeElimination:
    def test_removes_dead_branch(self):
        optimized, stats = optimize_model(_model_with_dead_branch())
        assert stats["nodes_removed"] == 2 and stats["per_pass"] == {"dead": 2}
        assert all(n.op_type != "Sigmoid" for n in optimized.graph.nodes)
        validate_graph(optimized.graph)

    def test_prunes_unused_initializers(self):
        b = GraphBuilder("unused_w", seed=0)
        x = b.input("x", (1, 4))
        _unused = b.initializer("never_used", np.zeros(3, dtype=np.float32))
        dead = b.linear(x, 4)
        b.output(b.relu(x))
        graph = optimize_model(b.build())[0].graph
        assert "never_used" not in graph.initializers
        assert all("linear_w" not in k for k in graph.initializers)
        assert "never_used" not in graph.value_info

    def test_noop_on_fully_live_graph(self, diamond_model):
        optimized, stats = optimize_model(diamond_model)
        assert stats["nodes_removed"] == 0
        # Nothing is pruned; the one change is the row count the 2-D Gemm
        # records for fused batches.
        expected = [node.copy() for node in diamond_model.graph.nodes]
        [gemm] = [node for node in expected if node.op_type == "Gemm"]
        gemm.set_attr("sample_rows", 1)
        assert optimized.graph.nodes == expected

    @pytest.mark.parametrize("name", list_models())
    def test_every_initializer_of_a_pruned_zoo_model_is_referenced(self, name):
        graph = optimize_model(build_model(name, variant="small"))[0].graph
        referenced = set(graph.output_names)
        for node in graph.nodes:
            referenced.update(node.present_inputs)
        assert set(graph.initializers) <= referenced


class TestIdentityElimination:
    def test_removes_identity_and_dropout(self):
        optimized, stats = optimize_model(_model_with_identities())
        assert stats["per_pass"] == {"identity": 2}
        assert [n.op_type for n in optimized.graph.nodes] == ["Relu"]
        validate_graph(optimized.graph)

    def test_preserves_semantics(self, rng):
        model = _model_with_identities()
        _assert_bitwise(model, optimize_model(model)[0],
                        {"x": rng.standard_normal((1, 4)).astype(np.float32)})

    def test_keeps_identity_feeding_graph_output(self):
        for op in ("identity", "dropout"):
            b = GraphBuilder("ident_out", seed=0)
            x = b.input("x", (1, 4))
            b.output(getattr(b, op)(b.relu(x)))
            model = b.build()
            optimized, stats = optimize_model(model)
            assert stats["nodes_removed"] == 0, op
            assert optimized.graph.nodes == model.graph.nodes, op

    def test_dropout_whose_mask_is_read_stays(self, rng):
        b = GraphBuilder("mask", seed=0)
        x = b.input("x", (1, 4))
        y, mask = b.node("Dropout", [b.relu(x)], num_outputs=2)
        b.output(b.node("Where", [mask, y, x]))
        model = b.build()
        optimized, stats = optimize_model(model)
        assert stats["nodes_removed"] == 0
        _assert_bitwise(model, optimized, {"x": rng.standard_normal((1, 4)).astype(np.float32)})

    def test_all_zero_pad_is_removed_and_a_real_pad_is_not(self, rng):
        b = GraphBuilder("pads", seed=0)
        x = b.input("x", (1, 4))
        y = b.node("Pad", [b.relu(x)], pads=[0, 0, 0, 0])
        y = b.node("Pad", [y, b.const(np.asarray([0, 1, 0, 1], dtype=np.int64))])
        b.output(b.relu(y))
        model = b.build()
        optimized, stats = optimize_model(model)
        assert stats["per_pass"] == {"identity": 1}
        assert [n.op_type for n in optimized.graph.nodes] == ["Relu", "Pad", "Relu"]
        _assert_bitwise(model, optimized, {"x": rng.standard_normal((1, 4)).astype(np.float32)})


class TestOptimizeModel:
    """``optimize_model`` as a whole."""

    def test_optimize_model_reports_stats(self):
        model = _model_with_constant_chain()
        optimized, stats = optimize_model(model)
        assert stats["nodes_before"] == model.num_nodes
        assert stats["nodes_after"] == optimized.num_nodes
        assert stats["nodes_removed"] == sum(stats["per_pass"].values()) > 0
        # Original model untouched.
        assert model.num_nodes == stats["nodes_before"]

    def test_squeezenet_has_no_pruning_opportunity(self):
        model = build_model("squeezenet", variant="small")
        _, stats = optimize_model(model)
        assert stats["nodes_removed"] == 0

    def test_yolo_and_bert_prune(self):
        for name in ("yolo_v5", "bert"):
            model = build_model(name, variant="small")
            optimized, stats = optimize_model(model)
            assert stats["nodes_removed"] > 0, name
            validate_graph(optimized.graph)

    def test_shape_materialization(self):
        b = GraphBuilder("shape_chain", seed=0)
        x = b.input("x", (1, 3, 8, 8))
        y = b.relu(x)
        shape = b.shape_of(y)
        idx = b.const(np.asarray([1], dtype=np.int64))
        chan = b.gather(shape, idx, axis=0)
        chan_f = b.cast(chan, to="float32")
        b.output(b.mul(y, chan_f))
        optimized, stats = optimize_model(b.build())
        assert stats["per_pass"] == {"shape": 1, "folded": 2}
        assert [n.op_type for n in optimized.graph.nodes] == ["Relu", "Mul"]
        (scale,) = optimized.graph.initializers.values()
        assert scale.dtype == np.float32 and scale.tolist() == [3.0]

    def test_alternation_prunes_at_any_depth_in_one_call(self, rng):
        model = _shape_gather_reshape_alternation(depth=10)
        optimized, stats = optimize_model(model)
        assert stats["nodes_removed"] == 20
        assert {n.op_type for n in optimized.graph.nodes} == {"Relu", "Reshape"}
        _assert_bitwise(model, optimized,
                        {"x": rng.standard_normal((2, 3, 4)).astype(np.float32)})

    def test_shape_of_a_padded_value_is_the_padded_shape(self, rng):
        b = GraphBuilder("shape_of_pad", seed=0)
        x = b.input("x", (1, 4))
        padded = b.node("Pad", [x], pads=[0, 1, 0, 1])
        zero = b.const(np.zeros(2, dtype=np.int64))
        b.output(b.add(b.shape_of(padded), zero))
        b.output(b.relu(padded))
        model = b.build()
        optimized, _ = optimize_model(model)
        feed = {"x": rng.standard_normal((1, 4)).astype(np.float32)}
        _assert_bitwise(model, optimized, feed)
        assert execute_model(optimized, feed)[model.graph.output_names[0]].tolist() == [1, 6]

    @pytest.mark.parametrize("name", list_models())
    def test_pruning_is_idempotent(self, name):
        once, _ = optimize_model(build_model(name, variant="small"))
        twice, stats = optimize_model(once)
        assert stats["nodes_removed"] == 0
        assert twice.graph.nodes == once.graph.nodes
        assert twice.graph.initializers.keys() == once.graph.initializers.keys()
        assert all(twice.graph.initializers[k] is v for k, v in once.graph.initializers.items())

    def test_one_sweep_and_one_validation_per_model(self, monkeypatch):
        calls = {"forward_sweep": 0, "validate_graph": 0}

        def counted(fn):
            def wrapper(*args, **kwargs):
                calls[fn.__name__] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(passes, "forward_sweep", counted(passes.forward_sweep))
        monkeypatch.setattr(passes, "validate_graph", counted(passes.validate_graph))
        optimize_model(_shape_gather_reshape_alternation(depth=10))
        assert calls == {"forward_sweep": 1, "validate_graph": 1}

    @pytest.mark.parametrize("name", ["identities", "yolo_v5"])
    def test_input_model_is_untouched_and_weights_are_shared(self, name):
        model = (_model_with_identities() if name == "identities"
                 else build_model(name, variant="small"))
        before = _snapshot(model.graph)
        optimized, stats = optimize_model(model)
        assert stats["nodes_removed"] > 0
        assert _snapshot(model.graph) == before
        for name, array in optimized.graph.initializers.items():
            if name in model.graph.initializers:
                assert array is model.graph.initializers[name]


class TestTransformedModels:
    """What pruning and cloning return is a new model around shared arrays."""

    def test_pruned_and_cloned_models_do_not_inherit_the_fingerprint(self):
        model = build_model("yolo_v5", variant="small")
        fingerprint = model_fingerprint(model)  # memoised in model.metadata
        pruned, stats = optimize_model(model)
        cloned, report = clone_cheap_producers(pruned)
        assert stats["nodes_removed"] > 0 and report.clones_created > 0
        assert len({fingerprint, model_fingerprint(pruned), model_fingerprint(cloned)}) == 3
        assert model_fingerprint(model.copy()) == fingerprint  # recomputed, same content

    def test_cloning_leaves_its_input_untouched_and_shares_weights(self):
        model = build_model("googlenet", variant="small")
        before = _snapshot(model.graph)
        cloned, report = clone_cheap_producers(model)
        assert report.clones_created > 0 and cloned.num_nodes == report.nodes_after
        assert _snapshot(model.graph) == before
        assert cloned.graph.initializers.keys() == model.graph.initializers.keys()
        assert all(cloned.graph.initializers[k] is v for k, v in model.graph.initializers.items())
        feed = example_inputs(model)
        _assert_bitwise(model, cloned, feed)


def _reshape_model(in_shape, target):
    b = GraphBuilder("reshape", seed=0)
    x = b.input("x", in_shape)
    b.output(b.relu(b.reshape(b.relu(x), target)))
    return b.build()


class TestBatchFollowing:
    """Batch-1 literals that folding leaves behind let a fused batch through."""

    def test_a_target_that_keeps_axis_0_copies_it_and_the_input_model_is_untouched(self, rng):
        model = _reshape_model((1, 64, 256), [1, 64, 4, 64])
        before = _snapshot(model.graph)
        values = {name: array.copy() for name, array in model.graph.initializers.items()}
        optimized, _ = optimize_model(model)
        [node] = [n for n in optimized.graph.nodes if n.op_type == "Reshape"]
        assert node.get_attr("shape") == [0, 64, 4, 64]
        assert optimized.graph.initializers[node.inputs[1]].tolist() == [0, 64, 4, 64]
        assert _snapshot(model.graph) == before
        assert all(np.array_equal(model.graph.initializers[name], value)
                   for name, value in values.items())
        _assert_bitwise(model, optimized,
                        {"x": rng.standard_normal((1, 64, 256)).astype(np.float32)})
        batch = {"x": rng.standard_normal((3, 64, 256)).astype(np.float32)}
        [out] = execute_model(optimized, batch).values()
        assert out.shape == (3, 64, 4, 64)

    def test_a_reshape_that_folds_the_batch_is_left_as_it_is(self):
        model = _reshape_model((1, 64, 256), [64, 256])
        optimized, _ = optimize_model(model)
        [node] = [n for n in optimized.graph.nodes if n.op_type == "Reshape"]
        [original] = [n for n in model.graph.nodes if n.op_type == "Reshape"]
        assert node == original
        assert optimized.graph.initializers[node.inputs[1]].tolist() == [64, 256]

    def test_two_d_products_record_their_compiled_row_count(self):
        b = GraphBuilder("products", seed=0)
        x = b.input("x", (3, 8))
        rows = b.matmul(x, b.weight("w", (8, 8)), name="rows")
        cols = b.node("Gemm", [b.weight("a", (8, 5)), rows], name="cols", transA=1)
        b.output(b.matmul(b.reshape(cols, [1, 5, 8]), b.weight("v", (8, 2)), name="three_d"))
        optimized, _ = optimize_model(b.build())
        recorded = {n.name: n.get_attr("sample_rows") for n in optimized.graph.nodes}
        assert recorded == {"rows": 3, "cols": 5, "three_d": None,
                            **{n.name: None for n in optimized.graph.nodes
                               if n.op_type == "Reshape"}}

    def test_an_unpruned_model_follows_the_batch_too(self):
        model = _reshape_model((1, 64, 256), [1, 64, 4, 64])
        before = _snapshot(model.graph)
        followed = follow_batch(model)
        assert _snapshot(model.graph) == before
        assert [n.name for n in followed.graph.nodes] == [n.name for n in model.graph.nodes]
        [node] = [n for n in followed.graph.nodes if n.op_type == "Reshape"]
        assert node.get_attr("shape") == [0, 64, 4, 64]
        assert followed.graph.initializers[node.inputs[1]].tolist() == [0, 64, 4, 64]

    def test_bert_head_splits_follow_the_batch(self):
        source = ramiel_compile(build_model("bert")).sequential_module.source
        assert "F.reshape(" in source and ", [0, 64, 4, 64])" in source
        assert ", [1, 64, 4, 64])" not in source
