"""A compile writes code; the runtime loads it.

``ramiel_compile`` writes the generated modules and builds no
:class:`ExecutionPlan`.  A :class:`GeneratedModule` imports its file on
first use — once, whichever thread gets there first — and a process
session imports its placed module before its workers fork.  An import
error surfaces at first use, naming the file.  A result runs the text it
was compiled to, even after another compile overwrote its files.  The
plan built later renders the sequential module's very text.
"""

from __future__ import annotations

import ast
import os
import re
import sys
import threading
import time

import numpy as np
import pytest

import repro.codegen.module_writer as module_writer
import repro.pipeline as pipeline
from repro.codegen import write_module
from repro.models import build_model, list_models
from repro.pipeline import ramiel_compile
from repro.runtime.plan import ExecutionPlan
from repro.runtime.session import create_session
from repro.serving import example_inputs

_NODE_COMMENT = re.compile(r"^\s*# \S+ node (.+)$", re.M)


def _record_loads(monkeypatch, log=None, delay_s=0.0):
    """Replace ``load_module`` with one that records ``(pid, path)`` per
    import — in a list, or appended to the file ``log`` (forked workers
    write there too)."""
    original = module_writer.load_module
    loads = []

    def recorded(path, name, source=None):
        time.sleep(delay_s)
        if log is None:
            loads.append((os.getpid(), str(path)))
        else:
            with open(log, "a", encoding="utf-8") as handle:
                handle.write(f"{os.getpid()} {path}\n")
        return original(path, name, source)

    monkeypatch.setattr(module_writer, "load_module", recorded)
    return loads


@pytest.mark.parametrize("clone", [False, True])
def test_a_compile_imports_nothing_and_builds_no_plan(monkeypatch, clone):
    loads = _record_loads(monkeypatch)
    plans = []
    original_init = ExecutionPlan.__init__

    def counted_init(self, *args, **kwargs):
        plans.append(self)
        original_init(self, *args, **kwargs)

    monkeypatch.setattr(ExecutionPlan, "__init__", counted_init)
    result = ramiel_compile(build_model("googlenet", variant="small"), clone=clone)
    assert (loads, plans, result.execution_plan) == ([], [], None)
    assert result.sequential_module.path.read_text() == result.sequential_module.source

    feed = example_inputs(result.model, seed=2)
    result.run_sequential(feed)
    assert [path for _, path in loads] == [str(result.sequential_module.path)]
    assert plans == []


def test_racing_threads_import_a_module_once(monkeypatch, tmp_path):
    loads = _record_loads(monkeypatch, delay_s=0.02)
    generated = write_module("import time\nVALUE = object()\n", "race", str(tmp_path))
    barrier = threading.Barrier(8)
    seen = [None] * 8

    def first_use(index):
        barrier.wait(timeout=10)
        # half through the module, half through a delegated attribute
        seen[index] = generated.module.VALUE if index % 2 else generated.VALUE

    threads = [threading.Thread(target=first_use, args=(i,)) for i in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(loads) == 1
    assert seen[0] is not None and all(value is seen[0] for value in seen)


def test_process_session_imports_its_placed_module_before_forking(
        monkeypatch, tmp_path, pin_cores):
    pin_cores(2)
    log = tmp_path / "loads.txt"
    _record_loads(monkeypatch, log=log)
    model = build_model("inception_v3", variant="small")
    result = ramiel_compile(model)
    assert not log.exists()

    feed = example_inputs(model, seed=5)
    want = create_session(result, executor="interp").run(feed)
    with create_session(result, executor="process") as session:
        placed = result.placement(2)
        assert session.stats()["placement"]["workers"] == 2
        for _ in range(2):
            got = session.run(feed)
            for name in want:
                np.testing.assert_array_equal(got[name], want[name])
    # one import, in this process, of the module the workers run
    assert log.read_text().splitlines() == [f"{os.getpid()} {placed.module.path}"]


def test_a_codeless_compile_places_one_worker_on_first_use(monkeypatch, tmp_path):
    """A serving lane compiles with ``generate_code=False``; its process
    replica's ``placement(1)`` generates just the one-worker module, and
    the session over it runs bitwise like the plan."""
    log = tmp_path / "loads.txt"
    _record_loads(monkeypatch, log=log)
    model = build_model("googlenet", variant="small")
    result = ramiel_compile(model, generate_code=False)
    assert result.parallel_module is None and result.sequential_module is None

    feed = example_inputs(model, seed=6)
    want = create_session(result, executor="plan").run(feed)
    with create_session(result, executor="process", cores=1) as session:
        placed = result.placement(1)
        assert placed.clustering.num_clusters == 1
        assert len(placed.module.CLUSTER_FUNCTIONS) == 1
        assert session.stats()["placement"]["workers"] == 1
        got = session.run(feed)
    for name in want:
        np.testing.assert_array_equal(got[name], want[name])
    assert result.parallel_module is None  # the full module was never made
    assert log.read_text().splitlines() == [f"{os.getpid()} {placed.module.path}"]


def test_a_broken_source_raises_at_first_use_naming_its_file(monkeypatch, tmp_path):
    original = pipeline.sequential_source

    def broken(*args):
        return original(*args).replace(
            "def run(inputs, weights, out=None, ws=None):", "def run(inputs, weights:", 1)

    monkeypatch.setattr(pipeline, "sequential_source", broken)
    model = build_model("squeezenet", variant="small")
    result = ramiel_compile(model, output_dir=str(tmp_path))  # writes, does not import
    path = result.sequential_module.path
    assert "def run(inputs, weights:" in path.read_text()

    feed = example_inputs(model)
    for _ in range(2):  # a failed import is not cached as a module
        with pytest.raises(SyntaxError) as excinfo:
            result.run_sequential(feed)
        assert excinfo.value.filename == str(path)
    result.run_parallel(feed)  # the other module is untouched


@pytest.mark.parametrize("variant, clone", [("small", True), ("default", False)])
def test_a_result_runs_its_own_code_after_its_files_are_overwritten(
        tmp_path, variant, clone):
    model = build_model("squeezenet", variant="small")
    first = ramiel_compile(model, output_dir=str(tmp_path))
    # same model name, same directory: the second compile's files replace the first's
    second = ramiel_compile(build_model("squeezenet", variant=variant),
                            output_dir=str(tmp_path), clone=clone)
    assert second.parallel_module.path == first.parallel_module.path
    assert first.parallel_module.path.read_text() != first.parallel_module.source

    feed = example_inputs(model, seed=3)
    want = create_session(first, executor="interp").run(feed)
    for got in (first.run_sequential(feed), first.run_parallel(feed)):
        assert got.keys() == want.keys()
        for name in want:
            np.testing.assert_array_equal(got[name], want[name])
    # the shared-memory channels a worker pool sizes fit this result's inputs
    specs = first.parallel_module.CHANNEL_SPECS
    assert {name: specs[name][0] for name in feed} == \
        {name: value.shape for name, value in feed.items()}


@pytest.mark.parametrize("name", list_models())
@pytest.mark.parametrize("clone", [False, True])
def test_the_plan_follows_the_sequential_modules_order(name, clone):
    """The plan renders the compile's sequential module byte for byte, so
    it follows its order."""
    result = ramiel_compile(build_model(name, variant="small"), clone=clone)
    plan = ExecutionPlan(result.optimized_model)
    assert plan.source == result.sequential_module.source
    printed = [ast.literal_eval(match) for match in
               _NODE_COMMENT.findall(plan.source)]
    assert printed == [node.name for node in plan.order]
    assert result.plan().source == result.sequential_module.source
