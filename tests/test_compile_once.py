"""One compile does each piece of work once, and leaves one directory behind.

``ramiel_compile`` sorts the optimized graph once (the plan's order is the
generated sequential module's order), builds one ``distance_to_end`` table
per dataflow graph (potential parallelism and linear clustering walk the
same one) and renders each node once (the sequential and the parallel
module print the same statement); an execution plan and its traced twin
render each node once too.  Generated modules of one process share one
temporary directory.
"""

from __future__ import annotations

import collections
import os
import sys
import tempfile

import numpy as np
import pytest

import repro.codegen.module_writer as module_writer
from repro.graph.critical_path import compute_distance_to_end
from repro.graph.traversal import topological_sort_nodes
from repro.ir.opset import destination, render
from repro.models import build_model
from repro.observability import Tracer
from repro.pipeline import ramiel_compile
from repro.runtime.plan import ExecutionPlan
from repro.runtime.session import create_session
from repro.serving import example_inputs


def _count_calls(monkeypatch, original, key):
    """Count calls of ``original`` under ``key(first argument)``, wherever a
    ``repro`` module has imported it."""
    counts = collections.Counter()

    def counted(*args, **kwargs):
        counts[key(args[0])] += 1
        return original(*args, **kwargs)

    for module in list(sys.modules.values()):
        if (getattr(module, "__name__", "").startswith("repro")
                and getattr(module, original.__name__, None) is original):
            monkeypatch.setattr(module, original.__name__, counted)
    return counts


@pytest.mark.parametrize("clone", [False, True])
def test_one_sort_one_distance_table_one_render(monkeypatch, clone):
    sorts = _count_calls(monkeypatch, topological_sort_nodes, id)
    tables = _count_calls(monkeypatch, compute_distance_to_end, id)
    renders = _count_calls(monkeypatch, render, lambda node: node.name)

    result = ramiel_compile(build_model("googlenet", variant="small"), clone=clone)

    nodes = [node.name for node in result.optimized_model.graph.nodes]
    assert sorted(renders) == sorted(nodes)
    assert list(tables) == [id(result.dataflow_graph)]
    # (sorts of the optimized graph, distance tables, renders of the most
    # rendered node)
    assert (sorts[id(result.optimized_model.graph)], tables[id(result.dataflow_graph)],
            max(renders.values())) == (1, 1, 1)


def test_a_plan_and_its_traced_twin_render_each_node_once(monkeypatch):
    """The twin prints the plain source's node blocks, and the plan's
    destination capabilities come from the same walk."""
    model = ramiel_compile(build_model("googlenet", variant="small")).optimized_model
    renders = _count_calls(monkeypatch, render, lambda node: node.name)
    destinations = _count_calls(monkeypatch, destination, lambda node: node.name)

    plan = ExecutionPlan(model)
    plan.enable_tracing(Tracer())

    assert sorted(renders) == sorted(node.name for node in model.graph.nodes)
    assert max(renders.values()) == 1
    assert not destinations
    feed = example_inputs(model)
    traced = plan.run(feed)
    plan.disable_tracing()
    for name, value in plan.run(feed).items():
        assert np.asarray(traced[name]).tobytes() == np.asarray(value).tobytes()


def test_compiles_share_one_codegen_directory(tmp_path, monkeypatch):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    monkeypatch.setattr(module_writer, "_process_dir", None)
    model = build_model("squeezenet", variant="small")
    feed = example_inputs(model)
    reference = create_session(model, executor="interp").run(feed)

    results = [ramiel_compile(model) for _ in range(3)]
    assert len(list(tmp_path.glob("ramiel_codegen_*"))) == 1
    modules = {m.path for r in results for m in (r.sequential_module, r.parallel_module)}
    assert len(modules) == 6, "every module keeps a file of its own"

    for result in results:
        runs = [result.run_sequential(feed)]
        runs += [result.run_parallel(feed, backend=b) for b in ("thread", "process")]
        for outputs in runs:
            assert set(outputs) == set(reference)
            for name, want in reference.items():
                assert np.asarray(outputs[name]).tobytes() == np.asarray(want).tobytes()


def test_only_the_creating_process_removes_the_directory(tmp_path):
    kept, removed = tmp_path / "kept", tmp_path / "removed"
    kept.mkdir()
    removed.mkdir()
    module_writer._remove_directory(os.getpid() + 1, str(kept))
    module_writer._remove_directory(os.getpid(), str(removed))
    assert kept.exists() and not removed.exists()
