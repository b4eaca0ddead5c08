"""Tests for the unified Session + IOBinding surface (:mod:`repro.runtime.session`).

Covers the executor registry (one source of truth, eager validation),
IOBinding edge cases — output buffers aliasing inputs, non-contiguous bound
buffers, dtype/shape mismatches, overlapping output buffers — and the two
load-bearing guarantees: bound runs are bitwise-identical to the
:class:`GraphExecutor` reference on the whole model zoo, and a warm
``run_with_binding`` loop performs zero arena allocations and zero
graph-output allocations (every output lands in place in its bound buffer).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.models import MODEL_REGISTRY
from repro.pipeline import PipelineConfig, ramiel_compile
from repro.runtime import profile_model
from repro.runtime.executor import GraphExecutor
from repro.runtime.plan import ExecutionPlan, PlanError
from repro.runtime.session import (
    EXECUTOR_REGISTRY,
    IOBinding,
    Session,
    create_session,
    known_executors,
    validate_executor,
)
from repro.serving import example_inputs
from tests.conftest import build_chain_model, build_diamond_model


def plan_session(model) -> Session:
    """A cheap plan session that skips the clustering pipeline."""
    return create_session(ExecutionPlan(model))


def bind_all(session: Session, feed) -> IOBinding:
    binding = session.bind()
    for name, array in feed.items():
        binding.bind_input(name, array)
    for name in session.output_names:
        binding.bind_output(name)
    return binding


# ---------------------------------------------------------------------------
# Executor registry
# ---------------------------------------------------------------------------
class TestExecutorRegistry:
    def test_registry_names(self):
        assert known_executors() == ("plan", "interp", "pool", "process")
        assert set(EXECUTOR_REGISTRY) == set(known_executors())

    def test_validate_accepts_known_names(self):
        for name in known_executors():
            assert validate_executor(name) == name

    def test_validate_rejects_unknown_with_registry_list(self):
        with pytest.raises(ValueError, match="plan, interp, pool, process"):
            validate_executor("turbo")

    def test_validate_rejects_outside_allowed_subset(self):
        with pytest.raises(ValueError, match="choose from: plan"):
            validate_executor("pool", allowed=("plan",))

    def test_create_session_validates_eagerly(self):
        with pytest.raises(ValueError, match="known executors"):
            create_session(build_diamond_model(), executor="bogus")


# ---------------------------------------------------------------------------
# Session construction
# ---------------------------------------------------------------------------
class TestSessionConstruction:
    def test_from_model_compiles_and_runs(self):
        model = build_diamond_model()
        session = create_session(model)
        feed = example_inputs(model, seed=1)
        outputs = session.run(feed)
        assert set(outputs) == set(session.output_names)
        assert session.executor == "plan"
        assert session.result is not None and session.plan is not None

    def test_from_result_reuses_compiled_plan(self):
        result = ramiel_compile(build_diamond_model())
        session = result.session()
        assert session.plan is result.execution_plan

    def test_from_execution_plan_wraps_directly(self):
        model = build_diamond_model()
        plan = ExecutionPlan(model)
        session = create_session(plan)
        assert session.plan is plan
        with pytest.raises(ValueError, match="'plan' session"):
            create_session(plan, executor="interp")

    def test_interp_session_shares_the_interface(self):
        result = ramiel_compile(build_diamond_model())
        feed = example_inputs(result.model, seed=3)
        via_plan = result.session().run(feed)
        via_interp = result.session(executor="interp").run(feed)
        for name, ref in via_plan.items():
            np.testing.assert_array_equal(via_interp[name], ref)

    def test_rejects_unknown_artifact_types(self):
        with pytest.raises(TypeError, match="create_session expects"):
            create_session({"not": "a model"})

    def test_closed_session_refuses_work(self):
        model = build_diamond_model()
        session = plan_session(model)
        session.close()
        with pytest.raises(RuntimeError, match="closed"):
            session.run(example_inputs(model))

    def test_broken_session_refuses_work(self):
        model = build_diamond_model()
        session = plan_session(model)
        session.mark_broken("watchdog timeout")
        assert session.broken
        with pytest.raises(RuntimeError, match="watchdog timeout"):
            session.run(example_inputs(model))


# ---------------------------------------------------------------------------
# IOBinding basics and edge cases
# ---------------------------------------------------------------------------
class TestIOBinding:
    def test_unknown_names_rejected(self):
        session = plan_session(build_diamond_model())
        binding = session.bind()
        with pytest.raises(ValueError, match="no input"):
            binding.bind_input("nope", np.zeros((1, 3, 16, 16), np.float32))
        with pytest.raises(ValueError, match="no output"):
            binding.bind_output("nope")

    def test_input_shape_and_dtype_validated_at_bind_time(self):
        session = plan_session(build_diamond_model())
        binding = session.bind()
        with pytest.raises(ValueError, match="axis"):
            binding.bind_input("x", np.zeros((1, 3, 8, 8), np.float32))
        with pytest.raises(ValueError, match="dimensions"):
            binding.bind_input("x", np.zeros((3, 16, 16), np.float32))
        with pytest.raises(ValueError, match="dtype"):
            binding.bind_input("x", np.zeros((1, 3, 16, 16), np.float64))
        # the batch axis is free (serving stacks along it)
        binding.bind_input("x", np.zeros((5, 3, 16, 16), np.float32))

    def test_output_buffer_must_be_writeable(self):
        session = plan_session(build_diamond_model())
        binding = session.bind()
        buf = np.zeros((1, 10), np.float32)
        buf.flags.writeable = False
        with pytest.raises(ValueError, match="writeable"):
            binding.bind_output(session.output_names[0], buf)

    def test_overlapping_output_buffers_rejected(self):
        model = build_diamond_model()
        feed = example_inputs(model)
        session = plan_session(model)
        shape = session.run(feed)[session.output_names[0]].shape
        # one output: simulate the overlap check against an already-bound
        # buffer by binding twice from views of the same base
        base = np.zeros((2,) + shape, np.float32)
        binding = session.bind()
        binding._outputs["__other__"] = base[0]
        with pytest.raises(ValueError, match="overlaps"):
            binding.bind_output(session.output_names[0], base[0, :1])

    def test_run_with_binding_requires_all_inputs(self):
        session = plan_session(build_diamond_model())
        binding = session.bind()
        with pytest.raises(ValueError, match="missing graph inputs"):
            session.run_with_binding(binding)

    def test_binding_is_session_scoped(self):
        model = build_diamond_model()
        binding = plan_session(model).bind()
        other = plan_session(model)
        with pytest.raises(ValueError, match="different session"):
            other.run_with_binding(binding)

    def test_output_shape_mismatch_raises(self):
        model = build_diamond_model()
        feed = example_inputs(model)
        session = plan_session(model)
        binding = bind_all(session, feed)
        name = session.output_names[0]
        binding._outputs[name] = np.zeros((7, 7), np.float32)
        with pytest.raises(PlanError, match="shape"):
            session.run_with_binding(binding)

    def test_output_dtype_mismatch_raises(self):
        model = build_diamond_model()
        feed = example_inputs(model)
        session = plan_session(model)
        reference = session.run(feed)
        name = session.output_names[0]
        binding = bind_all(session, feed)
        binding._outputs[name] = np.zeros(reference[name].shape, np.float64)
        with pytest.raises(PlanError, match="dtype"):
            session.run_with_binding(binding)

    def test_lazy_outputs_materialize_once_and_are_reused(self):
        model = build_diamond_model()
        feed = example_inputs(model, seed=4)
        session = plan_session(model)
        binding = bind_all(session, feed)
        first = session.run_with_binding(binding)
        second = session.run_with_binding(binding)
        for name in session.output_names:
            assert first[name] is second[name]
            assert binding.get_outputs()[name] is first[name]

    def test_caller_provided_output_buffer_is_written_in_place(self):
        model = build_diamond_model()
        feed = example_inputs(model, seed=5)
        session = plan_session(model)
        reference = GraphExecutor(model).run(feed)
        name = session.output_names[0]
        buf = np.empty_like(reference[name])
        binding = session.bind()
        for in_name, array in feed.items():
            binding.bind_input(in_name, array)
        binding.bind_output(name, buf)
        for _ in range(3):
            outputs = session.run_with_binding(binding)
            assert outputs[name] is buf
            np.testing.assert_array_equal(buf, reference[name])


# ---------------------------------------------------------------------------
# Aliasing and layout edge cases
# ---------------------------------------------------------------------------
class TestBindingAliasing:
    def test_output_buffer_aliasing_an_input_is_safe(self):
        """Binding an output over (a view of) an input must not corrupt the
        computation: the plan defers the write to the end of the run."""
        model = build_chain_model()
        feed = example_inputs(model, seed=6)
        session = plan_session(model)
        reference = GraphExecutor(model).run(feed)
        name = session.output_names[0]
        out_shape = reference[name].shape
        # a scratch area that *contains* the input: bind the input to one
        # view and the output to an overlapping view
        x = feed["x"]
        scratch = np.empty(max(x.size, int(np.prod(out_shape)) + x.size),
                           np.float32)
        in_view = scratch[:x.size].reshape(x.shape)
        in_view[...] = x
        out_view = scratch[:int(np.prod(out_shape))].reshape(out_shape)
        assert np.may_share_memory(in_view, out_view)
        binding = session.bind()
        binding.bind_input("x", in_view)
        binding.bind_output(name, out_view)
        outputs = session.run_with_binding(binding)
        assert outputs[name] is out_view
        np.testing.assert_array_equal(out_view, reference[name])

    def test_non_contiguous_bound_buffers(self):
        """Strided (non-contiguous) input and output buffers work and stay
        bitwise-identical to the contiguous reference."""
        model = build_diamond_model()
        feed = example_inputs(model, seed=7)
        session = plan_session(model)
        reference = GraphExecutor(model).run(feed)
        name = session.output_names[0]
        x = feed["x"]
        in_base = np.zeros(x.shape[:-1] + (2 * x.shape[-1],), x.dtype)
        in_view = in_base[..., ::2]
        in_view[...] = x
        assert not in_view.flags.c_contiguous
        out_shape = reference[name].shape
        out_base = np.zeros(out_shape[:-1] + (2 * out_shape[-1],), np.float32)
        out_view = out_base[..., ::2]
        assert not out_view.flags.c_contiguous
        binding = session.bind()
        binding.bind_input("x", in_view)
        binding.bind_output(name, out_view)
        for _ in range(3):
            outputs = session.run_with_binding(binding)
            assert outputs[name] is out_view
            np.testing.assert_array_equal(out_view, reference[name])
        # the interleaved columns were never touched
        np.testing.assert_array_equal(out_base[..., 1::2], 0)

    def test_multi_output_binding_over_shared_input_is_safe(self):
        """Two outputs of the same input, one bound over the input buffer:
        finalization must snapshot overlapping sources before the first
        copy, or the earlier copy corrupts the later output's source."""
        from repro.ir import GraphBuilder

        b = GraphBuilder("dual_output", seed=0)
        x = b.input("x", (1, 8))
        relu_out = b.relu(x)
        ident_out = b.identity(x)
        b.output(relu_out)
        b.output(ident_out)
        model = b.build()
        session = plan_session(model)
        original = np.linspace(-4.0, 3.0, 8, dtype=np.float32).reshape(1, 8)
        expected_relu = np.maximum(original, 0)
        for order in ((relu_out, ident_out), (ident_out, relu_out)):
            x_buf = original.copy()
            ident_buf = np.empty_like(original)
            binding = session.bind()
            binding.bind_input("x", x_buf)
            # relu lands over the input buffer itself; identity elsewhere
            buffers = {relu_out: x_buf, ident_out: ident_buf}
            for name in order:
                binding.bind_output(name, buffers[name])
            outputs = session.run_with_binding(binding)
            np.testing.assert_array_equal(outputs[ident_out], original)
            np.testing.assert_array_equal(outputs[relu_out], expected_relu)

    def test_output_buffer_overlapping_initializer_rejected(self):
        """Writing a bound output into (a view of) a weight array would
        corrupt every subsequent run; the plan refuses loudly."""
        model = build_diamond_model()
        feed = example_inputs(model)
        session = plan_session(model)
        weight = next(iter(session.plan.graph.initializers.values()))
        with pytest.raises(PlanError, match="initializer"):
            session.plan.run(feed, out={session.output_names[0]: weight})

    def test_bound_and_unbound_runs_interleave_safely(self):
        model = build_diamond_model()
        feed = example_inputs(model, seed=8)
        session = plan_session(model)
        reference = GraphExecutor(model).run(feed)
        name = session.output_names[0]
        binding = bind_all(session, feed)
        for _ in range(2):
            bound = session.run_with_binding(binding)
            unbound = session.run(feed)
            np.testing.assert_array_equal(bound[name], reference[name])
            np.testing.assert_array_equal(unbound[name], reference[name])
            assert unbound[name] is not bound[name]


# ---------------------------------------------------------------------------
# Zoo-wide: bitwise equality and the zero-alloc contract
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("model_name", sorted(MODEL_REGISTRY))
def test_bound_runs_bitwise_equal_interpreter_on_zoo(model_name):
    model = MODEL_REGISTRY[model_name].build(variant="small")
    feed = example_inputs(model, seed=11)
    reference = GraphExecutor(model).run(feed)
    session = plan_session(model)
    binding = bind_all(session, feed)
    for _ in range(3):
        outputs = session.run_with_binding(binding)
        assert set(outputs) == set(reference)
        for name, ref in reference.items():
            np.testing.assert_array_equal(outputs[name], ref)


@pytest.mark.parametrize("model_name", sorted(MODEL_REGISTRY))
def test_warm_bound_loop_is_zero_alloc_on_zoo(model_name):
    """Once warm, run_with_binding makes zero arena allocations and zero
    graph-output allocations: every output is written directly into its
    bound buffer (direct writes only, no end-of-run copies)."""
    model = MODEL_REGISTRY[model_name].build(variant="small")
    feed = example_inputs(model, seed=12)
    session = plan_session(model)
    binding = bind_all(session, feed)
    session.run_with_binding(binding)  # materialize + specialize
    session.run_with_binding(binding)  # first fully-bound (direct) run
    stats = session.stats()["plan"]
    allocs_warm = stats["arena"]["allocations"]
    copies_warm = stats["output_binding"]["copy_writes"]
    direct_warm = stats["output_binding"]["direct_writes"]
    rounds = 3
    buffers = dict(binding.get_outputs())
    for _ in range(rounds):
        outputs = session.run_with_binding(binding)
        for name, buf in buffers.items():
            assert outputs[name] is buf
    stats = session.stats()["plan"]
    assert stats["arena"]["allocations"] == allocs_warm
    assert stats["output_binding"]["copy_writes"] == copies_warm
    assert (stats["output_binding"]["direct_writes"] - direct_warm
            == rounds * len(session.output_names))
    assert stats["output_binding"]["bindable_outputs"] == len(session.output_names)


# ---------------------------------------------------------------------------
# Integration with the rest of the redesigned surface
# ---------------------------------------------------------------------------
class TestUnifiedSurface:
    def test_new_surface_emits_no_deprecation_warnings(self):
        """The session path never trips a DeprecationWarning (its own —
        none remain in src/ — or a dependency's)."""
        import warnings

        model = build_diamond_model()
        feed = example_inputs(model, seed=14)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            session = create_session(model)
            binding = bind_all(session, feed)
            session.run_with_binding(binding)
            session.run(feed)

    def test_profile_model_accepts_a_session(self):
        model = build_diamond_model()
        feed = example_inputs(model)
        session = plan_session(model)
        session.run(feed)  # warm outside the profile
        profile = profile_model(session, feed, num_runs=2, warmup=1)
        assert set(profile.ops) == {node.name for node in session.plan.graph.nodes}
        assert profile.arena_allocs_during_runs == 0
        with pytest.raises(ValueError, match="in-process"):
            profile_model(
                create_session(ramiel_compile(model, config=PipelineConfig(
                    generate_code=False)), executor="interp"),
                feed, num_runs=1)

    def test_profile_model_rejects_pool_sessions(self):
        result = ramiel_compile(build_diamond_model())
        session = result.session(executor="pool")
        try:
            with pytest.raises(ValueError, match="in-process"):
                profile_model(session, example_inputs(result.model))
        finally:
            session.close()

    def test_pool_session_runs_and_binds_by_copy(self):
        result = ramiel_compile(build_diamond_model())
        feed = example_inputs(result.model, seed=15)
        reference = result.session().run(feed)
        with result.session(executor="pool") as session:
            assert session.pool is not None
            outputs = session.run(feed)
            for name, ref in reference.items():
                np.testing.assert_allclose(outputs[name], ref,
                                           rtol=1e-5, atol=1e-6)
            binding = bind_all(session, feed)
            bound = session.run_with_binding(binding)
            for name, ref in reference.items():
                np.testing.assert_allclose(bound[name], ref,
                                           rtol=1e-5, atol=1e-6)
