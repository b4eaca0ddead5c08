"""Tests for SSA naming, the emitter, op lowering and generated-code execution."""

from __future__ import annotations

import ast

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
from repro.codegen.parallel_codegen import channel_name
from repro.codegen.ssa import sanitize_identifier
from repro.graph import model_to_dataflow
from repro.ir.node import OpNode
from repro.models import MODEL_REGISTRY
from repro.pipeline import ramiel_compile
from repro.runtime import WarmExecutorPool, execute_model
from repro.runtime.worker_pool import ParallelExecutionError

#: what a generated parallel module holds besides its cluster functions
PARALLEL_MODULE_TABLES = {
    "MODEL_NAME", "NUM_CLUSTERS", "GRAPH_INPUTS", "GRAPH_OUTPUTS",
    "CHANNEL_NAMES", "CHANNEL_SPECS", "NUM_NODES", "NO_DESTINATIONS",
    "CLUSTER_FUNCTIONS", "CLUSTER_INPUTS", "CLUSTER_OUTPUTS",
}


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
        # axis=-1 is F.softmax's own default, so the call leaves it out.
        assert stmt == "v_y = F.softmax(v_x)"

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
        assert "def run(inputs, weights, out=None, ws=None):" in source
        assert "GRAPH_OUTPUTS" in source
        compile(source, "<generated>", "exec")

    def test_matches_interpreter(self, diamond_model, rng):
        module = generate_sequential_module(diamond_model)
        x = rng.standard_normal((1, 3, 16, 16)).astype(np.float32)
        ref = execute_model(diamond_model, {"x": x})
        out = module.run({"x": x}, dict(diamond_model.graph.initializers))
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
        clustering, module = self._compile(diamond_model)
        channels = module.CHANNEL_NAMES
        assert channels == sorted(set(channels))
        # one channel per cross-cluster edge value and destination cluster
        owner = clustering.assignment()
        assert set(channels) == {channel_name(e.tensor, owner[e.src], owner[e.dst])
                                 for e in clustering.cross_cluster_edges()}

    def test_thread_and_process_match_reference(self, diamond_model, rng):
        clustering, module = self._compile(diamond_model)
        x = rng.standard_normal((1, 3, 16, 16)).astype(np.float32)
        weights = diamond_model.graph.initializers
        ref = execute_model(diamond_model, {"x": x})
        for backend in ("thread", "process"):
            with WarmExecutorPool(module, weights, backend=backend) as pool:
                out = pool.run({"x": x}, timeout=120)
            for key in ref:
                np.testing.assert_allclose(ref[key], out[key], rtol=1e-4, atol=1e-5,
                                           err_msg=backend)

    def test_unknown_backend_rejected(self, diamond_model, rng):
        _, module = self._compile(diamond_model)
        with pytest.raises(ValueError):
            WarmExecutorPool(module, {}, backend="gpu")

    @pytest.mark.parametrize("model_name", sorted(MODEL_REGISTRY))
    def test_module_holds_cluster_functions_and_tables_only(self, model_name):
        """A generated parallel module is driven by a worker pool: it holds
        its cluster functions and the tables the pool reads, no entry point
        of its own, and imports nothing from ``repro`` but the operator
        namespace."""
        result = ramiel_compile(MODEL_REGISTRY[model_name].build(variant="small"))
        tree = ast.parse(result.parallel_module.source)
        names = set()
        for stmt in tree.body:
            if isinstance(stmt, ast.FunctionDef):
                names.add(stmt.name)
            elif isinstance(stmt, ast.Assign):
                names.update(target.id for target in stmt.targets)
            else:
                assert isinstance(stmt, (ast.Expr, ast.Import)), ast.dump(stmt)
        clusters = {f"cluster_{i}" for i in range(result.clustering_merged.num_clusters)}
        assert {name for name in names if not name.startswith("_")} == \
            clusters | PARALLEL_MODULE_TABLES
        imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                    for alias in node.names}
        imported |= {node.module for node in ast.walk(tree)
                     if isinstance(node, ast.ImportFrom)}
        assert {name for name in imported if name.split(".")[0] == "repro"} == \
            {"repro.runtime.functional"}

    def test_clustering_model_mismatch_detected(self, diamond_model, chain_model):
        clustering = merge_clusters_fixpoint(linear_clustering(model_to_dataflow(chain_model)))
        with pytest.raises(ValueError, match="absent from the model graph"):
            generate_parallel_source(diamond_model, clustering)

    def test_worker_failure_surfaces(self, diamond_model, rng):
        _, module = self._compile(diamond_model)
        # Omit the weights: every cluster will fail with a KeyError, which
        # must surface as ParallelExecutionError rather than a hang.
        feed = {"x": rng.standard_normal((1, 3, 16, 16)).astype(np.float32)}
        with WarmExecutorPool(module, {}, backend="thread") as pool:
            with pytest.raises(ParallelExecutionError):
                pool.run(feed, timeout=30)

    def test_compiles_do_not_leak_into_sys_modules(self, diamond_model, rng):
        """Generated modules are reached through their GeneratedModule (and
        inherited by forked workers), never imported by name: a serving
        process that compiles forever must not grow ``sys.modules``."""
        import sys

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

