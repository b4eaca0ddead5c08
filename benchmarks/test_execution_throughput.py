"""Planned vs interpreted execution: wall-clock and allocation behaviour.

The acceptance bar for the planned execution engine
(:mod:`repro.runtime.plan`):

* :class:`ExecutionPlan` beats the naive node-by-node ``GraphExecutor``
  interpreter on wall-clock for every benchmarked zoo model,
* once warm, the plan performs **zero** new allocations per run —
  *including the heavy conv/GEMM/pooling operators*, whose outputs are
  views of the signature's liveness-packed slab and whose padding/
  column-matrix scratch comes from the plan's one bump workspace —
* the warm plan is not materially slower than the generated sequential
  module run standalone (the same text, allocating every intermediate) on
  the same batch-1 feed — the paper's setting, where the plan's
  per-call overhead matters most — and
* a warm ``Session.run_with_binding`` loop (the IOBinding surface) performs
  zero plan allocations **and zero graph-output allocations**: every
  output is written directly into its bound buffer (direct writes only, no
  end-of-run copies), bitwise-identical to the interpreter.

Inputs use a serving-shaped batch (a lane's fused micro-batches are
exactly this workload), where in-place destinations and slab reuse pay
for real memory traffic, not just dispatch overhead; the comparison with
the generated sequential module runs at batch 1.

Environment knobs (used by the CI perf-smoke job):

* ``REPRO_PERF_MODELS`` — comma-separated registry names
  (default ``squeezenet,googlenet,yolo_v5``)
* ``REPRO_PERF_ROUNDS`` — timing rounds per engine, best-of (default 5)
* ``REPRO_PERF_BATCH``  — input batch size (default 8) of every comparison
  but the sequential one, which runs at batch 1

The wall-clock ratio gates carry the ``perf`` marker, which the default
(tier-1) collection deselects: two medians taken on a shared box are not
deterministic.  CI's perf job selects them with ``-m "perf or not perf"``;
the bitwise and zero-alloc assertions here stay in tier-1.  Speed itself is
judged by ``ramiel bench compare`` on perflab's workloads; each gate here
names the perflab metric it protects.

Run with ``-s`` to see the comparison tables.
"""

from __future__ import annotations

import os
import time
from typing import Dict

import numpy as np
import pytest

from repro.analysis.reports import format_rows
from repro.codegen.sequential_codegen import generate_sequential_module
from repro.models import build_model
from repro.runtime.executor import GraphExecutor
from repro.runtime.plan import ExecutionPlan
from repro.runtime.session import create_session
from repro.serving import example_inputs

PERF_MODELS = [name.strip() for name in os.environ.get(
    "REPRO_PERF_MODELS", "squeezenet,googlenet,yolo_v5").split(",") if name.strip()]
PERF_ROUNDS = int(os.environ.get("REPRO_PERF_ROUNDS", "5"))
PERF_BATCH = int(os.environ.get("REPRO_PERF_BATCH", "8"))

#: tolerance for "must be faster" claims; absorbs scheduler noise on
#: short CI runs without letting a real regression through
GATE = 1.02

#: per-model tolerance for the planned-vs-interpreter check.  The heavy
#: kernels (tap copies, GEMM straight into the destination) are shared
#: with the interpreter, so on BLAS-dominated default-size models the two
#: engines run near parity and only dispatch/allocation savings separate them;
#: this bounds regressions without flaking on parity-class models, while
#: ``test_planned_path_beats_interpreter`` still requires a real win on at
#: least one model
INTERP_REGRESSION_GATE = 1.08

#: the plan must never be materially slower than the generated sequential
#: module it runs (the same text, standalone): at batch 1 the two differ by
#: the plan's per-run overhead and the slab's saved allocations, so this
#: only catches regressions
SEQUENTIAL_REGRESSION_GATE = 1.10


def _paired_timings(fn_a, fn_b, rounds: int):
    """Interleaved A/B timing pairs.

    Returns the best time of each engine plus the per-round ratio list.
    Pairing each A round with an immediately following B round makes the
    comparison robust to slow machine-state drift (frequency scaling,
    cache pressure from co-tenants): the gate uses the median of per-pair
    ratios, not a ratio of two absolute numbers taken seconds apart."""
    best_a = best_b = float("inf")
    ratios = []
    for _ in range(max(rounds, 1)):
        start = time.perf_counter()
        fn_a()
        time_a = time.perf_counter() - start
        start = time.perf_counter()
        fn_b()
        time_b = time.perf_counter() - start
        best_a = min(best_a, time_a)
        best_b = min(best_b, time_b)
        ratios.append(time_a / time_b)
    ratios.sort()
    return best_a, best_b, ratios[len(ratios) // 2]


def _measure(model_name: str) -> Dict:
    model = build_model(model_name, variant="default")
    feed = example_inputs(model, batch_size=PERF_BATCH, seed=1)
    single = example_inputs(model, batch_size=1, seed=1)
    interp = GraphExecutor(model)
    plan = ExecutionPlan(model)
    generated = generate_sequential_module(model)
    weights = model.graph.initializers

    def run_generated():
        return generated.run(dict(single), dict(weights))

    # Warm all paths symmetrically: page in weights, let the plan sweep
    # its shapes, pack its slabs (one per batch size) and grow its
    # scratch, and give the BLAS/OS state two full alternating passes
    # before anything is timed.
    for _ in range(2):
        interp.run(feed)
        run_generated()
        plan.run(single)
        plan.run(feed)

    allocs_warm = plan.stats()["arena"]["allocations"]
    interp_s, plan_s, median_ratio = _paired_timings(
        lambda: interp.run(feed), lambda: plan.run(feed), PERF_ROUNDS)
    _, _, sequential_ratio = _paired_timings(
        run_generated, lambda: plan.run(single), PERF_ROUNDS)
    stats = plan.stats()
    #: every node output is a fresh allocation per interpreter run
    interp_allocs = sum(len([o for o in n.outputs if o])
                        for n in model.graph.nodes)
    row = {
        "model": model_name,
        "interp_ms": round(interp_s * 1e3, 2),
        "planned_ms": round(plan_s * 1e3, 2),
        "speedup": round(median_ratio, 3),
        "sequential_speedup": round(sequential_ratio, 3),
        "fused_nodes": stats["fused_nodes"],
        "heavy_steps": stats["heavy_steps"],
        "interp_allocs_per_run": interp_allocs,
        "arena_allocs_delta": stats["arena"]["allocations"] - allocs_warm,
        "slab_bytes": stats["arena"]["slab_bytes"],
        "intermediate_bytes": stats["arena"]["intermediate_bytes"],
    }
    row.update(_measure_binding(model, plan, interp, feed))
    return row


def _measure_binding(model, plan: ExecutionPlan, interp: GraphExecutor,
                     feed) -> Dict:
    """The IOBinding gate: warm bound runs allocate nothing, anywhere.

    Wraps the already-warm plan in a Session, binds the feed and
    session-managed output buffers, and measures a warm
    ``run_with_binding`` loop: plan allocations and graph-output copies
    must both stay flat (every output is a direct in-place write into its
    bound buffer), the returned arrays must *be* the bound buffers, and
    the results must stay bitwise-identical to the interpreter.
    """
    session = create_session(plan)
    binding = session.bind()
    for name, array in feed.items():
        binding.bind_input(name, array)
    for name in session.output_names:
        binding.bind_output(name)
    for _ in range(2):  # materialize output buffers + specialize dest heads
        session.run_with_binding(binding)

    stats = plan.stats()
    allocs_warm = stats["arena"]["allocations"]
    copies_warm = stats["output_binding"]["copy_writes"]
    direct_warm = stats["output_binding"]["direct_writes"]

    plan_s, bound_s, median_ratio = _paired_timings(
        lambda: plan.run(feed), lambda: session.run_with_binding(binding),
        PERF_ROUNDS)

    buffers = binding.get_outputs()
    outputs = session.run_with_binding(binding)
    outputs_pinned = all(outputs[name] is buffers[name] for name in buffers)
    reference = interp.run(feed)
    bitwise_ok = all(
        np.array_equal(np.asarray(outputs[name]), np.asarray(ref))
        for name, ref in reference.items())

    stats = plan.stats()
    return {
        "bound_ms": round(bound_s * 1e3, 2),
        "binding_speedup": round(median_ratio, 3),
        "binding_allocs_delta": stats["arena"]["allocations"] - allocs_warm,
        "binding_output_copies": stats["output_binding"]["copy_writes"] - copies_warm,
        "binding_direct_writes": stats["output_binding"]["direct_writes"] - direct_warm,
        "binding_outputs_pinned": outputs_pinned,
        "binding_bitwise_ok": bitwise_ok,
    }


@pytest.fixture(scope="module")
def throughput_rows():
    return [_measure(name) for name in PERF_MODELS]


@pytest.mark.perf
def test_planned_path_beats_interpreter(throughput_rows):
    """The warm plan vs the node-by-node interpreter, whole model.

    Protects perflab's ``exec_b1`` ``latency_cu`` (its ``plan`` rows): the
    default executor must not fall back to interpreter speed."""
    print()
    print(format_rows(throughput_rows))
    for row in throughput_rows:
        assert row["speedup"] * INTERP_REGRESSION_GATE >= 1.0, (
            f"{row['model']}: planned execution is materially slower than "
            f"the interpreter (median per-pair speedup {row['speedup']}x, "
            f"best planned {row['planned_ms']} ms vs interp "
            f"{row['interp_ms']} ms)")
    best = max(row["speedup"] for row in throughput_rows)
    assert best * GATE >= 1.0, (
        "the planned engine must beat the interpreter on at least one "
        f"benchmarked model; got {[(r['model'], r['speedup']) for r in throughput_rows]}")


def test_planned_path_is_zero_alloc_once_warm(throughput_rows):
    print()
    for row in throughput_rows:
        print(f"{row['model']}: slab_bytes / intermediate_bytes = "
              f"{row['slab_bytes']} / {row['intermediate_bytes']} = "
              f"{row['slab_bytes'] / row['intermediate_bytes']:.3f}")
        assert row["arena_allocs_delta"] == 0, (
            f"{row['model']}: the warm plan allocated "
            f"{row['arena_allocs_delta']} new buffers during timed runs; "
            "the steady-state hot path must be allocation-free, heavy ops "
            "included")
        assert row["interp_allocs_per_run"] > 0
        assert row["fused_nodes"] > 0
        # Heavy ops must actually be on the destination-passing path, not
        # silently falling back to allocating binders.
        assert row["heavy_steps"] > 0
        # ... into a slab smaller than the intermediates it holds.
        assert 0 < row["slab_bytes"] < row["intermediate_bytes"]


@pytest.mark.perf
def test_plan_never_regresses_generated_sequential(throughput_rows):
    """The warm plan vs the generated sequential module, whole model, batch 1.

    Protects perflab's ``exec_b1`` ``latency_cu`` (its ``plan`` rows)
    against its ``codegen.sequential_run_cu``: the plan runs this very
    text with a destination table, so it must not lose to the same code
    allocating every intermediate.  A regression gate, not a speedup
    claim."""
    for row in throughput_rows:
        assert row["sequential_speedup"] * SEQUENTIAL_REGRESSION_GATE >= 1.0, (
            f"{row['model']}: the planned engine is materially slower than "
            f"the generated sequential module ({row['sequential_speedup']}x)")


def test_bound_runs_zero_output_alloc_and_bitwise(throughput_rows):
    """The IOBinding acceptance gate: a warm ``run_with_binding`` loop
    performs zero plan allocations and zero graph-output allocations —
    every graph output is written directly into its bound buffer — and the
    bound outputs are bitwise-identical to the interpreter."""
    for row in throughput_rows:
        assert row["binding_allocs_delta"] == 0, (
            f"{row['model']}: warm bound runs allocated "
            f"{row['binding_allocs_delta']} plan buffers")
        assert row["binding_output_copies"] == 0, (
            f"{row['model']}: {row['binding_output_copies']} graph outputs "
            "were finalized by copy instead of written in place — the "
            "bound hot path must be allocation-free end to end")
        assert row["binding_direct_writes"] > 0
        assert row["binding_outputs_pinned"], (
            f"{row['model']}: run_with_binding returned arrays that are "
            "not the bound buffers")
        assert row["binding_bitwise_ok"], (
            f"{row['model']}: bound outputs diverged from GraphExecutor")


@pytest.mark.perf
def test_bound_runs_do_not_regress_unbound_plan(throughput_rows):
    """Binding removes the per-run output allocation; it must never make
    the planned path materially slower (regression bound, not a claim).

    Protects perflab's ``runtime.session.binding_saving_cu`` (traced
    ``exec_b1``)."""
    for row in throughput_rows:
        assert row["binding_speedup"] * INTERP_REGRESSION_GATE >= 1.0, (
            f"{row['model']}: run_with_binding is materially slower than "
            f"the unbound plan ({row['binding_speedup']}x)")
