"""Tests for the planned execution engine (:mod:`repro.runtime.plan`).

The plan is differentially tested against :class:`GraphExecutor`, the
reference interpreter: outputs must be *bitwise* equal on every zoo model,
on the first run under a signature (which computes the memory plan) and
on every later one alike.  The aliasing tests prove that slab reuse can never corrupt graph outputs,
shared inputs or initializers.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ir import GraphBuilder
from repro.models import MODEL_REGISTRY
from repro.pipeline import PipelineConfig, ramiel_compile
from repro.runtime import profile_model
from repro.runtime.executor import GraphExecutor
from repro.runtime.plan import ExecutionPlan, PlanError, pack_intervals
from repro.serving.engine import example_inputs
from tests.conftest import build_chain_model, build_diamond_model


# ---------------------------------------------------------------------------
# Differential correctness: plan == interpreter, bitwise, on the whole zoo
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("model_name", sorted(MODEL_REGISTRY))
def test_plan_bitwise_equals_interpreter_on_zoo(model_name):
    model = MODEL_REGISTRY[model_name].build(variant="small")
    feed = example_inputs(model, seed=7)
    reference = GraphExecutor(model).run(feed)
    plan = ExecutionPlan(model)
    # Run 1 computes the memory plan and, like runs 2-3, computes into its
    # slab; all three must be bitwise-identical to the interpreter.
    for _ in range(3):
        outputs = plan.run(feed)
        assert set(outputs) == set(reference)
        for name, ref in reference.items():
            np.testing.assert_array_equal(outputs[name], ref)


def test_plan_without_fusion_bitwise_equals_interpreter():
    model = build_diamond_model()
    feed = example_inputs(model, seed=3)
    reference = GraphExecutor(model).run(feed)
    plan = ExecutionPlan(model, fuse=False)
    for _ in range(2):
        outputs = plan.run(feed)
        for name, ref in reference.items():
            np.testing.assert_array_equal(outputs[name], ref)


def test_plan_handles_varying_batch_sizes():
    """Each input signature specializes independently and stays correct."""
    model = build_chain_model()
    plan = ExecutionPlan(model)
    executor = GraphExecutor(model)
    for batch in (1, 3, 1, 3, 2):
        feed = example_inputs(model, batch_size=batch, seed=batch)
        expected = executor.run(feed)
        outputs = plan.run(feed)
        for name, ref in expected.items():
            np.testing.assert_array_equal(outputs[name], ref)


def test_plan_rejects_missing_inputs_and_unknown_outputs():
    model = build_diamond_model()
    plan = ExecutionPlan(model)
    with pytest.raises(PlanError, match="missing graph input"):
        plan.run({})
    feed = example_inputs(model)
    with pytest.raises(PlanError, match="not a graph output"):
        plan.run(feed, out={"no_such_value": np.empty(1, np.float32)})


def test_plan_checks_supported_ops_at_build_time():
    b = GraphBuilder("custom", seed=0)
    x = b.input("x", (1, 4))
    out = b.node("TotallyCustomOp", [x])
    b.output(out)
    with pytest.raises(PlanError, match="no handlers"):
        ExecutionPlan(b.build(validate=False, infer=False))


# ---------------------------------------------------------------------------
# Fusion and memory-plan behaviour
# ---------------------------------------------------------------------------
def test_plan_fuses_elementwise_tails():
    model = build_diamond_model()  # conv->relu pairs throughout
    plan = ExecutionPlan(model)
    stats = plan.stats()
    assert stats["fused_nodes"] > 0
    assert stats["steps"] < stats["nodes"]
    unfused = ExecutionPlan(model, fuse=False)
    assert unfused.stats()["fused_nodes"] == 0
    assert unfused.stats()["steps"] == unfused.stats()["nodes"]


@pytest.mark.parametrize("model_name", ["yolo_v5", "squeezenet", "googlenet"])
def test_warm_runs_allocate_nothing(model_name):
    """One run packs the signature's slab and grows the scratch workspace
    to its high-water mark; from the second run on nothing is obtained
    from numpy — step outputs *and* the heavy kernels' pad/column-matrix
    scratch — and the slab is smaller than what it holds."""
    model = MODEL_REGISTRY[model_name].build(variant="small")
    feed = example_inputs(model, seed=3)
    plan = ExecutionPlan(model)
    plan.run(feed)
    warm = plan.stats()["arena"]
    for _ in range(3):
        plan.run(feed)
    stats = plan.stats()
    assert stats["arena"] == warm
    assert warm["signatures"] == 1
    assert 0 < warm["slab_bytes"] < warm["intermediate_bytes"]
    # conv/pool/GEMM nodes must be on the destination-passing path, so the
    # zero-alloc property above covers the heavy ops, not just elementwise
    assert stats["heavy_steps"] > 0


@pytest.mark.parametrize("model_name", sorted(MODEL_REGISTRY))
def test_every_slab_view_is_what_the_step_returns_unbound(model_name):
    """The memory plan is computed from the fed shapes, so a wrong table
    entry would be a wrong ``out=``: every view handed to a step must have
    exactly the ``(shape, dtype)`` the step's head returns without one, at
    the declared batch size and at another."""
    model = MODEL_REGISTRY[model_name].build(variant="small")
    executor = GraphExecutor(model)
    for batch in (1, 3):
        feed = example_inputs(model, batch_size=batch, seed=batch)
        plan = ExecutionPlan(model)
        try:
            plan.run(feed)
        except PlanError:
            assert model_name == "bert" and batch == 3  # reshapes bake batch 1 in
            continue
        (memory,) = plan._memory.values()
        views = {name: view for name, view in zip(plan._head_outputs, memory.outs)
                 if view is not None}
        assert views
        unbound = executor.run(feed, outputs=list(views))
        for name, view in views.items():
            assert (view.shape, view.dtype) == (unbound[name].shape, unbound[name].dtype), name


def test_first_bound_run_under_a_signature_writes_directly():
    """The table knows a bound output's shape before anything ran, so even
    the first run under a signature computes straight into the buffer."""
    model = build_diamond_model()
    feed = example_inputs(model, seed=6)
    reference = GraphExecutor(model).run(feed)
    plan = ExecutionPlan(model)
    bound = {name: np.empty_like(ref) for name, ref in reference.items()}
    outputs = plan.run(feed, out=bound)
    binding = plan.stats()["output_binding"]
    assert binding["bindable_outputs"] == len(bound)
    assert (binding["direct_writes"], binding["copy_writes"]) == (len(bound), 0)
    for name, ref in reference.items():
        assert outputs[name] is bound[name]
        np.testing.assert_array_equal(bound[name], ref)


def test_one_feed_is_one_signature_whatever_the_dict_order():
    """Regression: the signature followed the caller's dict order, so the
    same two-input feed spelled both ways built two slabs."""
    b = GraphBuilder("two_inputs", seed=0)
    x, y = b.input("x", (1, 4096)), b.input("y", (1, 4096))
    total = b.node("Add", [x, y])
    b.output(b.node("Mul", [total, y]))
    model = b.build()
    rng = np.random.default_rng(0)
    fx, fy = (rng.standard_normal((1, 4096)).astype(np.float32) for _ in "xy")
    plan = ExecutionPlan(model, fuse=False)
    first = plan.run({"x": fx, "y": fy})
    second = plan.run({"y": fy, "x": fx})
    for name in first:
        np.testing.assert_array_equal(first[name], second[name])
    arena = plan.stats()["arena"]
    assert (arena["signatures"], arena["slab_bytes"]) == (1, 16384)


def test_fed_initializer_is_not_a_constant_of_that_signature():
    """A feed may override an initializer; the sweep must then take its
    shape from the fed array and must not read the stored one as a
    compile-time constant (here: a Reshape target)."""
    b = GraphBuilder("fed_init", seed=0)
    x = b.input("x", (2, 2048))
    target = b.const(np.asarray([2, 2048], dtype=np.int64))
    doubled = b.node("Add", [x, x])
    b.output(b.node("Neg", [b.node("Abs", [b.node("Reshape", [doubled, target])])]))
    model = b.build()
    feed = {"x": np.arange(4096, dtype=np.float32).reshape(2, 2048)}
    override = dict(feed, **{target: np.asarray([4, 1024], dtype=np.int64)})
    plan = ExecutionPlan(model, fuse=False)
    executor = GraphExecutor(model)
    for inputs in (feed, override, feed, override):
        expected = executor.run(inputs)
        outputs = plan.run(inputs)
        for name, ref in expected.items():
            np.testing.assert_array_equal(outputs[name], ref)
    assert plan.stats()["arena"]["signatures"] == 2


def test_a_feed_dtype_the_ir_cannot_name_runs_without_a_slab():
    b = GraphBuilder("odd_dtype", seed=0)
    x = b.input("x", (1, 4096))
    b.output(b.node("Abs", [b.node("Add", [x, x])]))
    model = b.build()
    feed = {"x": np.arange(-2048, 2048, dtype=np.int16).reshape(1, 4096)}
    expected = GraphExecutor(model).run(feed)
    plan = ExecutionPlan(model, fuse=False)
    for _ in range(2):
        outputs = plan.run(feed)
        for name, ref in expected.items():
            assert outputs[name].dtype == ref.dtype
            np.testing.assert_array_equal(outputs[name], ref)
    assert plan.stats()["arena"]["slab_bytes"] == 0


def test_profiler_plan_engine_reports_alloc_accounting():
    model = build_diamond_model()
    feed = example_inputs(model)
    profile = profile_model(model, feed, num_runs=3, warmup=2)
    assert profile.arena_stats["allocations"] > 0
    # after two warmup runs the signature's slab is packed and the scratch
    # has grown: the measured runs must not have allocated either
    assert profile.arena_allocs_during_runs == 0


def test_profiler_plan_engine_matches_interpreter_node_set():
    model = build_diamond_model()
    feed = example_inputs(model)
    profile = profile_model(model, feed, num_runs=2, warmup=1)
    assert set(profile.ops) == {node.name for node in model.graph.nodes}
    assert all(len(op.samples_s) == 2 for op in profile.ops.values())


@pytest.mark.parametrize("model_name", sorted(MODEL_REGISTRY))
def test_plan_spans_account_for_every_node(model_name):
    """The tracer is the one per-step timer, so its spans must cover the
    graph: one ``plan`` span per node per run unfused, and fused spans
    whose head plus ``args["fused"]`` op types count every node once."""
    from collections import Counter

    from repro.observability import Tracer

    model = MODEL_REGISTRY[model_name].build(variant="small")
    feed = example_inputs(model, seed=1)
    nodes = model.graph.nodes
    runs = 2
    for fuse in (False, True):
        plan = ExecutionPlan(model, fuse=fuse)
        tracer = Tracer(capacity=4 * runs * len(nodes) + 64)
        plan.enable_tracing(tracer)
        for _ in range(runs):
            plan.run(feed)
        spans = [event for event in tracer.events() if event.cat == "plan"]
        heads = Counter(event.args["node"] for event in spans)
        ops = Counter()
        for event in spans:
            ops[event.args["op"]] += 1
            fused = event.args.get("fused")
            if fused:
                ops.update(fused.split("+"))
        if not fuse:
            assert len(spans) == runs * len(nodes)
            assert heads == Counter({node.name: runs for node in nodes})
        assert set(heads.values()) == {runs}
        assert ops == Counter({op: runs * count for op, count in
                               Counter(node.op_type for node in nodes).items()})


@pytest.mark.parametrize("model_name", sorted(MODEL_REGISTRY))
def test_profile_model_covers_every_node(model_name):
    """Regression: profiling a fused plan session timed only the fused
    steps' heads, so the simulator got measured costs for some nodes and
    static units for the rest.  Model and session forms both profile a
    fusion-free plan now, which covers the profiled graph's node set."""
    from repro.runtime.session import create_session

    model = MODEL_REGISTRY[model_name].build(variant="small")
    feed = example_inputs(model, seed=2)
    session = create_session(model)
    try:
        for subject, graph in ((model, model.graph), (session, session.plan.graph)):
            profile = profile_model(subject, feed, num_runs=2, warmup=1)
            names = {node.name for node in graph.nodes}
            assert set(profile.ops) == names
            assert set(profile.cost_provider()) == names
            assert profile.arena_allocs_during_runs == 0
    finally:
        session.close()


# ---------------------------------------------------------------------------
# Aliasing safety: slab reuse must never corrupt user-visible arrays
# ---------------------------------------------------------------------------
def test_inputs_and_initializers_survive_repeated_runs():
    model = build_diamond_model()
    feed = example_inputs(model, seed=5)
    snapshots = {name: array.copy() for name, array in feed.items()}
    weights = {name: array.copy()
               for name, array in model.graph.initializers.items()}
    plan = ExecutionPlan(model)
    for _ in range(3):
        plan.run(feed)
    for name, snap in snapshots.items():
        np.testing.assert_array_equal(feed[name], snap)
    for name, snap in weights.items():
        np.testing.assert_array_equal(model.graph.initializers[name], snap)


def test_outputs_of_successive_runs_do_not_share_memory():
    model = build_diamond_model()
    plan = ExecutionPlan(model)
    first = plan.run(example_inputs(model, seed=1))
    first_copies = {name: array.copy() for name, array in first.items()}
    second = plan.run(example_inputs(model, seed=2))
    for name in first:
        assert not np.shares_memory(first[name], second[name])
        # run 2 must not have clobbered run 1's returned buffers
        np.testing.assert_array_equal(first[name], first_copies[name])


def test_value_feeding_multiple_consumers_is_not_corrupted():
    """A shared intermediate read by two branches survives in-place tails."""
    b = GraphBuilder("shared", seed=0)
    x = b.input("x", (1, 8))
    y = b.node("Relu", [x])          # shared by both branches and an output
    left = b.node("Add", [y, y])
    right = b.node("Mul", [y, y])
    z = b.node("Sub", [left, right])
    b.output(z)
    b.output(y)
    model = b.build()
    feed = {"x": np.random.default_rng(0).standard_normal((1, 8)).astype(np.float32)}
    reference = GraphExecutor(model).run(feed)
    plan = ExecutionPlan(model)
    for _ in range(3):
        outputs = plan.run(feed)
        for name, ref in reference.items():
            np.testing.assert_array_equal(outputs[name], ref)


def test_view_chains_do_not_recycle_live_storage():
    """Reshape/transpose views keep their base storage's slab range live."""
    b = GraphBuilder("views", seed=0)
    x = b.input("x", (2, 3, 4))
    doubled = b.node("Add", [x, x])              # slab-eligible producer
    flat = b.node("Reshape", [doubled], shape=[2, 12])   # view of it
    bumped = b.node("Add", [flat, flat])
    b.output(bumped)
    b.output(flat)
    model = b.build()
    feed = {"x": np.arange(24, dtype=np.float32).reshape(2, 3, 4)}
    reference = GraphExecutor(model).run(feed)
    plan = ExecutionPlan(model)
    for _ in range(4):
        outputs = plan.run(feed)
        for name, ref in reference.items():
            np.testing.assert_array_equal(outputs[name], ref)


def test_constant_nodes_never_head_fused_chains():
    """Regression: fusing an in-place tail onto a Constant head would write
    through the binder's cached array, corrupting every later run."""
    b = GraphBuilder("const_chain", seed=0)
    x = b.input("x", (1, 4))
    const = b.node("Constant", [], value=np.full((1, 4), 2.0, dtype=np.float32))
    negated = b.node("Neg", [const])      # single consumer of the constant
    out = b.node("Add", [x, negated])
    b.output(out)
    model = b.build(validate=False, infer=False)
    feed = {"x": np.zeros((1, 4), dtype=np.float32)}
    reference = GraphExecutor(model).run(feed)
    plan = ExecutionPlan(model)
    for _ in range(4):  # the corruption only surfaced from run 3 onward
        outputs = plan.run(feed)
        for name, ref in reference.items():
            np.testing.assert_array_equal(outputs[name], ref)


def test_alias_group_storage_actually_recycles():
    """A buffer whose only escape is a view gives its slab range back once
    the view has been read for the last time — and not a step earlier."""
    b = GraphBuilder("alias_recycle", seed=0)
    x = b.input("x", (1, 4096))
    doubled = b.node("Add", [x, x])                 # slab range A
    flat = b.node("Reshape", [doubled], shape=[4096])  # view of A
    early = b.node("Mul", [flat, flat])             # A is being read: range B
    total = b.node("ReduceSum", [flat], keepdims=0)    # last read of A
    late = b.node("Neg", [early])                   # A is dead: takes its range
    out = b.node("Add", [total, b.node("ReduceSum", [late], keepdims=0)])
    b.output(out)
    model = b.build()
    feed = {"x": np.ones((1, 4096), dtype=np.float32)}
    reference = GraphExecutor(model).run(feed)
    plan = ExecutionPlan(model, fuse=False)
    for _ in range(3):
        outputs = plan.run(feed)
        for name, ref in reference.items():
            np.testing.assert_array_equal(outputs[name], ref)
    stats = plan.stats()["arena"]
    assert stats["slab_bytes"] < stats["intermediate_bytes"], stats
    (memory,) = plan._memory.values()
    views = {node.outputs[0]: view
             for nodes, view in zip(plan._step_nodes, memory.outs) if view is not None
             for node in nodes}
    assert not np.shares_memory(views[doubled], views[early])
    assert np.shares_memory(views[doubled], views[late])


def test_fused_tail_on_scalar_chain_value_stays_out_of_place():
    """Regression: a keepdims=0 reduction head hands its tail a numpy
    scalar, which reports shape/dtype but cannot be an ``out=`` target."""
    b = GraphBuilder("scalar_chain", seed=0)
    x = b.input("x", (1, 8))
    first = b.node("ReduceSum", [x], keepdims=0)   # numpy scalar at runtime
    second = b.node("ReduceMax", [x], keepdims=0)
    shifted = b.node("Add", [second, first])       # fusable tail on the scalar
    b.output(shifted)
    model = b.build()
    feed = {"x": np.arange(8, dtype=np.float32).reshape(1, 8)}
    reference = GraphExecutor(model).run(feed)
    plan = ExecutionPlan(model)
    for _ in range(3):  # run 2+ would have hit the in-place TypeError
        outputs = plan.run(feed)
        for name, ref in reference.items():
            np.testing.assert_array_equal(outputs[name], ref)


def _nonzero_model(head: str):
    """``x -> NonZero -> Cast -> <head> -> Mul -> ReduceSum``: every shape
    past ``NonZero`` depends on the data, not on the input signature."""
    b = GraphBuilder(f"nonzero_{head}", seed=0)
    x = b.input("x", (64, 64))
    coords = b.node("Cast", [b.node("NonZero", [x])], to="float32")  # (2, nnz)
    if head == "unary":
        y = b.node("Abs", [coords])
    elif head == "binary":
        y = b.node("Add", [coords, coords])
    else:  # three operands
        weight = b.const(np.ones((2, 8), dtype=np.float32))
        bias = b.const(np.ones((8,), dtype=np.float32))
        y = b.node("Gemm", [coords, weight, bias], transA=1)  # (nnz, 8)
    b.output(b.node("ReduceSum", [b.node("Mul", [y, y])], keepdims=0))
    return b.build(validate=False, infer=False)


@pytest.mark.parametrize("head", ["unary", "binary", "ternary"])
def test_data_dependent_steps_allocate_instead_of_taking_a_view(head):
    """The input signature does not pin a shape downstream of ``NonZero``:
    a second feed of the same shape with fewer non-zeros must not compute
    into a view sized for the first — numpy would broadcast a ``(2, 1)``
    result into a ``(2, 4096)`` destination and the sum would silently be
    wrong.  The shape sweep marks those steps unknown, so they allocate."""
    model = _nonzero_model(head)
    plan = ExecutionPlan(model)
    executor = GraphExecutor(model)
    for nonzeros in (4096, 1, 2048, 4096):
        x = np.zeros(4096, dtype=np.float32)
        x[:nonzeros] = 1.0
        feed = {"x": x.reshape(64, 64)}
        expected = executor.run(feed)
        outputs = plan.run(feed)
        for name, ref in expected.items():
            np.testing.assert_array_equal(outputs[name], ref)
    assert plan.stats()["arena"]["signatures"] == 1
    # no step downstream of NonZero holds a slab range
    (memory,) = plan._memory.values()
    assert [view for nodes, view in zip(plan._step_nodes, memory.outs)
            if nodes[0].op_type != "NonZero" and view is not None] == []


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 40), st.integers(0, 12),
                          st.integers(1, 5000)), max_size=40))
def test_pack_intervals_never_overlaps_live_ranges(raw):
    intervals = [(first, first + span, nbytes) for first, span, nbytes in raw]
    offsets, total = pack_intervals(intervals)
    aligned = [-(-nbytes // 64) * 64 for _, _, nbytes in intervals]
    assert all(offset % 64 == 0 for offset in offsets)
    for i, (first_i, last_i, _) in enumerate(intervals):
        assert offsets[i] + aligned[i] <= total
        for j in range(i):
            first_j, last_j, _ = intervals[j]
            if first_i <= last_j and first_j <= last_i:  # live together
                assert (offsets[i] + aligned[i] <= offsets[j]
                        or offsets[j] + aligned[j] <= offsets[i])
    max_live = max((sum(size for (first, last, _), size in zip(intervals, aligned)
                        if first <= step <= last) for step in range(54)), default=0)
    assert max_live <= total <= sum(aligned)


# ---------------------------------------------------------------------------
# Pipeline / worker-pool integration
# ---------------------------------------------------------------------------
def test_ramiel_compile_carries_an_execution_plan():
    model = build_diamond_model()
    result = ramiel_compile(model)
    assert result.execution_plan is not None
    assert result.plan() is result.execution_plan  # cached, not rebuilt
    assert "plan" in result.stage_times_s
    feed = example_inputs(model, seed=4)
    np.testing.assert_array_equal(
        list(result.session().run(feed).values())[0],
        list(GraphExecutor(result.optimized_model).run(feed).values())[0])


def test_pipeline_build_plan_can_be_disabled_then_built_lazily():
    model = build_diamond_model()
    result = ramiel_compile(model, config=PipelineConfig(build_plan=False,
                                                         generate_code=False))
    assert result.execution_plan is None
    assert result.plan() is not None  # lazy build on demand
