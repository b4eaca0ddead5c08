"""Tracing overhead gates for the planned execution hot path.

The observability layer's first design constraint is *zero cost when
absent*: :class:`~repro.runtime.plan.ExecutionPlan` compiles its traced
stepper as a separate closure at ``enable_tracing`` time, so the default
path carries no per-step tracer branches.  These benchmarks hold that
claim to the same paired-ratio standard as
``benchmarks/test_execution_throughput.py``:

* a plan that went through an enable→disable tracing round trip must run
  at parity with a plan that never saw a tracer (the untraced closure is
  restored, not rebuilt around dead branches),
* with tracing *enabled*, the warm hot path must still perform zero arena
  allocations and zero graph-output allocations — spans record
  timestamps, they do not perturb buffer reuse, and
* an untraced :class:`~repro.runtime.worker_pool.WarmExecutorPool`
  dispatch must run at parity with a pool that went through a
  ``set_tracer`` attach→detach round trip: the cross-boundary tracing
  rides the job tuple as a ``None`` and costs one ``is None`` check per
  worker job when absent (a looser gate than the plan's, since pool runs
  include queue hand-off noise), and
* a *hardened* pool — a :class:`~repro.resilience.FaultInjector` with
  no specs armed — must dispatch at parity with a pristine pool: fault
  injection, like tracing, is zero-cost when faults are absent.

Environment knobs (shared with the execution benchmark):

* ``REPRO_PERF_ROUNDS`` — timing rounds, best-of (default 5)
* ``REPRO_PERF_BATCH``  — input batch size (default 8)

The three wall-clock ratio gates carry the ``perf`` marker, which the
default ``pytest`` run deselects (``pyproject.toml``); the deterministic
assertions (zero-alloc, span counts, every worker the same live one,
bitwise outputs)
stay in tier-1.  Run with ``-m "perf or not perf" -s`` to run the gates
and see the measured table.
"""

from __future__ import annotations

import os
import time
from typing import Dict

import numpy as np
import pytest

from repro.analysis.reports import format_rows
from repro.models import build_model
from repro.observability import Tracer
from repro.runtime.plan import ExecutionPlan
from repro.serving import example_inputs

OVERHEAD_MODELS = [name.strip() for name in os.environ.get(
    "REPRO_OBS_MODELS", "squeezenet").split(",") if name.strip()]
PERF_ROUNDS = int(os.environ.get("REPRO_PERF_ROUNDS", "5"))
PERF_BATCH = int(os.environ.get("REPRO_PERF_BATCH", "8"))

#: a tracing-disabled plan must run at parity with a never-traced plan;
#: this absorbs the same scheduler noise budget as the interpreter
#: regression gate in the execution benchmark
DISABLED_OVERHEAD_GATE = 1.08


def _paired_timings(fn_a, fn_b, rounds: int):
    """Interleaved A/B timing pairs (same scheme as the execution bench).

    Returns the best time of each side plus the median per-pair ratio, so
    slow machine-state drift cancels instead of biasing the gate."""
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

    pristine = ExecutionPlan(model)          # never sees a tracer
    toggled = ExecutionPlan(model)           # enable → disable round trip
    tracer = Tracer()
    toggled.enable_tracing(tracer)
    toggled.run(feed)
    toggled.disable_tracing()

    for _ in range(2):                       # warm both symmetrically
        pristine.run(feed)
        toggled.run(feed)

    pristine_s, toggled_s, disabled_ratio = _paired_timings(
        lambda: pristine.run(feed), lambda: toggled.run(feed), PERF_ROUNDS)

    # traced runs: informational overhead + the zero-alloc invariant
    toggled.enable_tracing(tracer)
    toggled.run(feed)                        # let the traced closure warm
    allocs_warm = toggled.stats()["arena"]["allocations"]
    tracer.clear()
    _, traced_s, traced_ratio = _paired_timings(
        lambda: pristine.run(feed), lambda: toggled.run(feed), PERF_ROUNDS)
    stats = toggled.stats()
    traced_output = toggled.run(feed)
    toggled.disable_tracing()
    reference = pristine.run(feed)
    bitwise_ok = all(
        np.array_equal(np.asarray(traced_output[name]), np.asarray(value))
        for name, value in reference.items())
    return {
        "model": model_name,
        "pristine_ms": round(pristine_s * 1e3, 2),
        "disabled_ms": round(toggled_s * 1e3, 2),
        "disabled_ratio": round(disabled_ratio, 3),
        "traced_ms": round(traced_s * 1e3, 2),
        "traced_ratio": round(traced_ratio, 3),
        "spans_per_run": stats["steps"],
        "traced_allocs_delta": stats["arena"]["allocations"] - allocs_warm,
        "spans_recorded": tracer.stats()["recorded"],
        "spans_dropped": tracer.stats()["dropped"],
        "traced_bitwise_ok": bitwise_ok,
    }


@pytest.fixture(scope="module")
def overhead_rows():
    return [_measure(name) for name in OVERHEAD_MODELS]


@pytest.mark.perf
def test_disabled_tracing_runs_at_parity(overhead_rows):
    """After enable→disable, the plan is the untraced closure again: a
    paired run against a never-traced plan must stay within noise.

    Protects perflab's ``exec_b1`` ``latency_cu`` (measured untraced) and
    ``observability.trace_overhead``."""
    print()
    print(format_rows(overhead_rows))
    for row in overhead_rows:
        assert row["disabled_ratio"] * DISABLED_OVERHEAD_GATE >= 1.0, (
            f"{row['model']}: a tracing-disabled plan is materially slower "
            f"than a never-traced one ({row['disabled_ratio']}x, "
            f"{row['disabled_ms']} ms vs {row['pristine_ms']} ms) — the "
            "untraced closure was not cleanly restored")


def test_traced_warm_runs_stay_zero_alloc(overhead_rows):
    """Tracing must observe the hot path, not change it: warm traced runs
    allocate nothing from the arena and stay bitwise-identical."""
    for row in overhead_rows:
        assert row["traced_allocs_delta"] == 0, (
            f"{row['model']}: {row['traced_allocs_delta']} arena "
            "allocations appeared during warm traced runs")
        assert row["traced_bitwise_ok"], (
            f"{row['model']}: traced outputs diverged from the untraced "
            "plan")


def test_traced_runs_record_one_span_per_step(overhead_rows):
    for row in overhead_rows:
        assert row["spans_per_run"] > 0
        # the timed section runs PERF_ROUNDS traced passes plus the final
        # output-capture pass; every one records a span per plan step
        assert row["spans_recorded"] >= row["spans_per_run"] * PERF_ROUNDS
        assert row["spans_dropped"] == 0  # capacity covers the whole window


# ---------------------------------------------------------------------------
# Warm worker-pool dispatch parity
# ---------------------------------------------------------------------------
#: untraced pool dispatch vs a never-traced pool; looser than the plan
#: gate because every pool run includes thread-queue hand-off jitter
POOL_PARITY_GATE = 1.25


def _measure_pool(model_name: str) -> Dict:
    from repro.observability.merge import merge_traces
    from repro.pipeline import ramiel_compile
    from repro.runtime.worker_pool import WarmExecutorPool

    model = build_model(model_name, variant="default")
    feed = example_inputs(model, batch_size=PERF_BATCH, seed=1)
    result = ramiel_compile(model)
    weights = result.optimized_model.graph.initializers

    pristine = WarmExecutorPool(result.parallel_module, weights)
    toggled = WarmExecutorPool(result.parallel_module, weights)
    tracer = Tracer()
    try:
        toggled.set_tracer(tracer)        # attach → run → detach round trip
        toggled.run(feed)
        toggled.set_tracer(None)
        for _ in range(2):                # warm both symmetrically
            pristine.run(feed)
            toggled.run(feed)
        pristine_s, toggled_s, ratio = _paired_timings(
            lambda: pristine.run(feed), lambda: toggled.run(feed),
            PERF_ROUNDS)

        # traced-pool sanity: workers ship spans that merge into one trace
        toggled.set_tracer(tracer)
        toggled.clear_worker_traces()
        tracer.clear()
        traced_output = toggled.run(feed)
        buffers = toggled.worker_trace_buffers()
        merged = merge_traces(tracer, buffers)
        reference = pristine.run(feed)
        bitwise_ok = all(
            np.array_equal(np.asarray(traced_output[name]), np.asarray(value))
            for name, value in reference.items())
    finally:
        pristine.close()
        toggled.close()
    worker_spans = sum(len(b.events) for b in buffers)
    return {
        "model": model_name,
        "pristine_ms": round(pristine_s * 1e3, 2),
        "untraced_ms": round(toggled_s * 1e3, 2),
        "untraced_ratio": round(ratio, 3),
        "workers": len(buffers),
        "worker_spans": worker_spans,
        "worker_drops": sum(b.dropped for b in buffers),
        "merged_events": len(merged["traceEvents"]),
        "traced_bitwise_ok": bitwise_ok,
    }


@pytest.fixture(scope="module")
def pool_rows():
    return [_measure_pool(name) for name in OVERHEAD_MODELS]


@pytest.mark.perf
def test_untraced_pool_dispatch_runs_at_parity(pool_rows):
    """After attach→detach, pool jobs carry ``ctx=None`` again: a paired
    run against a never-traced pool must stay within queue noise.

    Protects perflab's ``exec_b1`` ``alt_latency_cu`` (its pool and
    process rows, measured untraced)."""
    print()
    print(format_rows(pool_rows))
    for row in pool_rows:
        assert row["untraced_ratio"] * POOL_PARITY_GATE >= 1.0, (
            f"{row['model']}: a tracer-detached pool is materially slower "
            f"than a never-traced one ({row['untraced_ratio']}x, "
            f"{row['untraced_ms']} ms vs {row['pristine_ms']} ms) — the "
            "untraced dispatch path is carrying tracing weight")


def test_traced_pool_ships_worker_spans(pool_rows):
    for row in pool_rows:
        assert row["workers"] > 0
        # one worker.execute span per worker for the single traced run
        assert row["worker_spans"] >= row["workers"]
        assert row["worker_drops"] == 0
        assert row["merged_events"] > row["worker_spans"]  # + coordinator
        assert row["traced_bitwise_ok"], (
            f"{row['model']}: traced pool outputs diverged from the "
            "untraced pool")


# ---------------------------------------------------------------------------
# Hardened (fault-injectable) pool dispatch parity
# ---------------------------------------------------------------------------
#: a pool with a fault injector installed (but no specs armed) must
#: dispatch at parity with a pristine pool: the resilience layer's cost
#: when faults are absent is one ``is not None`` check per dispatch (the
#: pool's own liveness checks run in both pools alike)
HARDENED_PARITY_GATE = POOL_PARITY_GATE


def _measure_hardened_pool(model_name: str) -> Dict:
    from repro.pipeline import ramiel_compile
    from repro.resilience import FaultInjector
    from repro.runtime.worker_pool import WarmExecutorPool

    model = build_model(model_name, variant="default")
    feed = example_inputs(model, batch_size=PERF_BATCH, seed=1)
    result = ramiel_compile(model)
    weights = result.optimized_model.graph.initializers

    pristine = WarmExecutorPool(result.parallel_module, weights)
    hardened = WarmExecutorPool(result.parallel_module, weights)
    try:
        # injector with no specs: every directive lookup misses, so the
        # fault slot rides each job as ``None`` — the zero-cost claim
        hardened.set_fault_injector(FaultInjector(seed=0))
        workers = [worker.ident for worker in hardened._workers]
        for _ in range(2):                    # warm both symmetrically
            pristine.run(feed)
            hardened.run(feed)
        pristine_s, hardened_s, ratio = _paired_timings(
            lambda: pristine.run(feed), lambda: hardened.run(feed),
            PERF_ROUNDS)
        hardened_output = hardened.run(feed)
        reference = pristine.run(feed)
        bitwise_ok = all(
            np.array_equal(np.asarray(hardened_output[name]),
                           np.asarray(value))
            for name, value in reference.items())
        stats = hardened.stats()
        same_workers = [worker.ident for worker in hardened._workers] == workers
    finally:
        pristine.close()
        hardened.close()
    return {
        "model": model_name,
        "pristine_ms": round(pristine_s * 1e3, 2),
        "hardened_ms": round(hardened_s * 1e3, 2),
        "hardened_ratio": round(ratio, 3),
        "same_workers": same_workers,
        "workers_alive": all(row["alive"] for row in stats["workers"]),
        "failures": stats["failures"],
        "hardened_bitwise_ok": bitwise_ok,
    }


@pytest.fixture(scope="module")
def hardened_rows():
    return [_measure_hardened_pool(name) for name in OVERHEAD_MODELS]


@pytest.mark.perf
def test_hardened_pool_dispatch_runs_at_parity(hardened_rows):
    """A disarmed fault injector must not tax the fault-free dispatch
    path: a paired run against a pristine pool stays within the same
    queue-noise budget as the tracing gate.

    Protects serving with ``ResilienceConfig(fault_injector=...)``;
    perflab's ``exec_b1`` pool and process sessions run with no injector
    attached, so this gate prices none of their cost."""
    print()
    print(format_rows(hardened_rows))
    for row in hardened_rows:
        assert row["hardened_ratio"] * HARDENED_PARITY_GATE >= 1.0, (
            f"{row['model']}: a pool with a disarmed fault "
            f"injector is materially slower than a pristine one "
            f"({row['hardened_ratio']}x, {row['hardened_ms']} ms vs "
            f"{row['pristine_ms']} ms) — the resilience layer is taxing "
            "fault-free dispatch")


def test_hardened_pool_stays_quiet_and_bitwise_correct(hardened_rows):
    """A healthy hardened pool keeps every worker — the same thread or
    process, alive, with no failed run — and produces bitwise-identical
    outputs."""
    for row in hardened_rows:
        assert row["same_workers"] and row["workers_alive"], (
            f"{row['model']}: a worker died or was replaced during the "
            "parity run")
        assert row["failures"] == 0, (
            f"{row['model']}: {row['failures']} parity run(s) failed")
        assert row["hardened_bitwise_ok"], (
            f"{row['model']}: hardened pool outputs diverged from the "
            "pristine pool")
