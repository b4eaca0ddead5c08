"""Tests for SSA naming, the emitter, op lowering and generated-code execution."""

from __future__ import annotations

import numpy as np
import pytest

from repro.clustering import linear_clustering, merge_clusters_fixpoint
from repro.codegen import (
    CodeEmitter,
    SSANamer,
    generate_parallel_module,
    generate_parallel_source,
    generate_sequential_module,
    generate_sequential_source,
    lower_node,
)
from repro.codegen.op_lowering import LoweringError
from repro.codegen.parallel_codegen import channel_name, collect_channels
from repro.codegen.ssa import sanitize_identifier
from repro.graph import model_to_dataflow
from repro.ir.node import OpNode
from repro.runtime import execute_model
from repro.runtime.process_runtime import (
    ParallelExecutionError,
    execute_generated_module,
    run_sequential_module,
    time_callable,
)


class TestSSANamer:
    def test_stable_mapping(self):
        namer = SSANamer()
        a = namer.name_for("conv/out:0")
        assert namer.name_for("conv/out:0") == a
        assert a.isidentifier()

    def test_collision_avoidance(self):
        namer = SSANamer()
        a = namer.name_for("x.y")
        b = namer.name_for("x:y")
        assert a != b

    def test_keyword_and_digit_handling(self):
        namer = SSANamer(prefix="")
        assert namer.name_for("class") != "class"
        assert namer.name_for("1value").isidentifier()
        assert sanitize_identifier("for") != "for"


class TestEmitter:
    def test_indentation_blocks(self):
        em = CodeEmitter()
        with em.block("def f():"):
            em.line("return 1")
        assert em.source() == "def f():\n    return 1\n"

    def test_dedent_guard(self):
        with pytest.raises(ValueError):
            CodeEmitter().dedent()

    def test_docstring_multiline(self):
        em = CodeEmitter()
        em.docstring("line one\nline two")
        assert '"""line one' in em.source()


class TestOpLowering:
    def test_conv_lowering_text(self):
        node = OpNode.create("Conv", ["x", "w", "b"], ["y"],
                             kernel_shape=[3, 3], strides=[1, 1], pads=[1, 1, 1, 1],
                             dilations=[1, 1], group=1)
        (stmt,) = lower_node(node, ["v_x", "weights['w']", "weights['b']"], ["v_y"])
        assert stmt.startswith("v_y = F.conv2d(v_x")
        assert "pads=[1, 1, 1, 1]" in stmt

    def test_concat_and_softmax(self):
        concat = OpNode.create("Concat", ["a", "b"], ["c"], axis=1)
        (stmt,) = lower_node(concat, ["v_a", "v_b"], ["v_c"])
        assert stmt == "v_c = F.concat([v_a, v_b], axis=1)"
        softmax = OpNode.create("Softmax", ["x"], ["y"], axis=-1)
        (stmt,) = lower_node(softmax, ["v_x"], ["v_y"])
        assert "F.softmax(v_x, axis=-1)" in stmt

    def test_multi_output_dropout(self):
        node = OpNode.create("Dropout", ["x"], ["y", "mask"], ratio=0.5)
        stmts = lower_node(node, ["v_x"], ["v_y", "v_mask"])
        assert len(stmts) == 2

    def test_unknown_op_raises(self):
        node = OpNode("FancyCustomOp", ["x"], ["y"])
        with pytest.raises(LoweringError):
            lower_node(node, ["v_x"], ["v_y"])

    def test_lowering_statements_compile(self):
        # Every generated statement must be syntactically valid Python.
        node = OpNode.create("Gemm", ["a", "b", "c"], ["y"], alpha=1.0, beta=1.0,
                             transA=0, transB=1)
        for stmt in lower_node(node, ["v_a", "v_b", "v_c"], ["v_y"]):
            compile(stmt, "<generated>", "exec")


class TestSequentialCodegen:
    def test_source_structure(self, diamond_model):
        source = generate_sequential_source(diamond_model)
        assert "def run(inputs, weights):" in source
        assert "GRAPH_OUTPUTS" in source
        compile(source, "<generated>", "exec")

    def test_matches_interpreter(self, diamond_model, rng):
        module = generate_sequential_module(diamond_model)
        x = rng.standard_normal((1, 3, 16, 16)).astype(np.float32)
        ref = execute_model(diamond_model, {"x": x})
        out = run_sequential_module(module, {"x": x}, diamond_model.graph.initializers)
        for key in ref:
            np.testing.assert_allclose(ref[key], out[key], rtol=1e-4, atol=1e-5)


class TestParallelCodegen:
    def _compile(self, model):
        clustering = merge_clusters_fixpoint(linear_clustering(model_to_dataflow(model)))
        return clustering, generate_parallel_module(model, clustering)

    def test_source_mentions_channels(self, diamond_model):
        clustering = merge_clusters_fixpoint(linear_clustering(model_to_dataflow(diamond_model)))
        source = generate_parallel_source(diamond_model, clustering)
        compile(source, "<generated>", "exec")
        assert ".put(" in source and ".get(" in source
        assert "CLUSTER_FUNCTIONS" in source

    def test_channel_names_deterministic(self):
        assert channel_name("v", 0, 1) == "c0_to_c1__v"
        assert channel_name("a@b1", 2, 3) == "c2_to_c3__a_b1"

    def test_channel_list_matches_cross_edges(self, diamond_model):
        clustering = merge_clusters_fixpoint(linear_clustering(model_to_dataflow(diamond_model)))
        channels = collect_channels(diamond_model.graph, clustering)
        assert len(channels) == len(set(channels))
        # every channel corresponds to at least one cross-cluster edge value
        assert len(channels) <= len(clustering.cross_cluster_edges())

    def test_thread_and_process_match_reference(self, diamond_model, rng):
        clustering, module = self._compile(diamond_model)
        x = rng.standard_normal((1, 3, 16, 16)).astype(np.float32)
        weights = diamond_model.graph.initializers
        ref = execute_model(diamond_model, {"x": x})
        thread_out = execute_generated_module(module, {"x": x}, weights, backend="thread")
        process_out = execute_generated_module(module, {"x": x}, weights,
                                               backend="process", timeout=120)
        for key in ref:
            np.testing.assert_allclose(ref[key], thread_out[key], rtol=1e-4, atol=1e-5)
            np.testing.assert_allclose(ref[key], process_out[key], rtol=1e-4, atol=1e-5)

    def test_unknown_backend_rejected(self, diamond_model, rng):
        _, module = self._compile(diamond_model)
        with pytest.raises(ValueError):
            execute_generated_module(module, {}, {}, backend="gpu")

    def test_clustering_model_mismatch_detected(self, diamond_model, chain_model):
        clustering = merge_clusters_fixpoint(linear_clustering(model_to_dataflow(chain_model)))
        with pytest.raises(ValueError, match="absent from the model graph"):
            generate_parallel_source(diamond_model, clustering)

    def test_worker_failure_surfaces(self, diamond_model, rng):
        _, module = self._compile(diamond_model)
        # Omit the weights: every cluster will fail with a KeyError, which
        # must surface as ParallelExecutionError rather than a hang.
        with pytest.raises(ParallelExecutionError):
            execute_generated_module(module, {"x": rng.standard_normal((1, 3, 16, 16))
                                              .astype(np.float32)}, {}, backend="thread",
                                     timeout=30)

    def test_time_callable(self):
        median, result = time_callable(lambda: 42, repeats=3, warmup=0)
        assert result == 42
        assert median >= 0

    def test_compiles_do_not_leak_into_sys_modules(self, diamond_model, rng):
        """Generated modules are reached through their GeneratedModule (and
        inherited by forked workers), never imported by name: a serving
        process that compiles forever must not grow ``sys.modules``."""
        import sys

        from repro.pipeline import ramiel_compile

        ramiel_compile(diamond_model)  # first-use imports settle
        before = len(sys.modules)
        for _ in range(10):
            result = ramiel_compile(diamond_model)
        assert len(sys.modules) == before
        assert not [name for name in sys.modules
                    if name.startswith("ramiel_generated_")]
        x = rng.standard_normal((1, 3, 16, 16)).astype(np.float32)
        ref = result.run_sequential({"x": x})
        for backend in ("thread", "process"):
            out = result.run_parallel({"x": x}, backend=backend)
            for key in ref:
                np.testing.assert_allclose(ref[key], out[key], rtol=1e-4, atol=1e-5)


def test_generated_run_parallel_runs_every_backend_it_names(diamond_model, rng):
    """The driver a generated parallel module carries runs under each
    backend its docstring names, bitwise equal to the interpreter (it used
    to look itself up in ``sys.modules``, where it never is, and to name a
    'serial' backend that does not exist)."""
    import re

    from repro.pipeline import ramiel_compile

    result = ramiel_compile(diamond_model)
    driver = result.parallel_module.run_parallel
    backends = re.findall(r"'(\w+)'", driver.__doc__)
    assert backends == ["thread", "process"]
    feed = {"x": rng.standard_normal((1, 3, 16, 16)).astype(np.float32)}
    reference = execute_model(result.optimized_model, feed)
    for backend in backends:
        out = driver(feed, result.optimized_model.graph.initializers,
                     backend=backend)
        for key, ref in reference.items():
            np.testing.assert_array_equal(out[key], ref, err_msg=backend)
