"""Serving-engine throughput: cached+batched engine vs naive compile-per-request.

The acceptance bar for the serving subsystem:

* the engine's cached + micro-batched path sustains strictly more
  requests/sec than the naive pre-serving path (a full ``ramiel_compile``
  plus one parallel execution per request) on the same workload, and
* a second compilation of an identical (model, config, input signature)
  triple is a cache hit with zero recompilation.

Reduced-size model variants keep the harness fast; the relative comparison
is what matters, exactly like the measured-speedup benchmarks.  Run with
``-s`` to see the per-model table and the serving metrics report.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.reports import format_rows, render_serving_report
from repro.models import build_model
from repro.pipeline import ramiel_compile
from repro.serving import (
    EngineConfig,
    InferenceEngine,
    drive_load,
    example_inputs,
    naive_throughput,
)
from tests.conftest import build_batch_folding_model

#: three zoo models of different topology (fire modules, inception blocks,
#: transformer layers) served from one engine
SERVED_MODELS = ["squeezenet", "googlenet", "bert"]

NUM_REQUESTS = 16
CONCURRENCY = 8
NAIVE_REQUESTS = 2


@pytest.fixture(scope="module")
def served_models():
    return {name: build_model(name, variant="small") for name in SERVED_MODELS}


@pytest.fixture(scope="module")
def engine():
    eng = InferenceEngine(EngineConfig(max_batch_size=8))
    yield eng
    eng.shutdown()


@pytest.mark.perf
def test_engine_beats_naive_per_request_compile(served_models, engine):
    """The cached, batching engine beats compiling per request.

    Protects perflab's ``serve_closed`` ``latency_cu`` and
    ``alt_latency_cu``: a served request must never pay a compile."""
    rows = []
    for name, model in served_models.items():
        engine.warmup(model)
        load = drive_load(engine, model, num_requests=NUM_REQUESTS,
                          concurrency=CONCURRENCY)
        naive = naive_throughput(model, num_requests=NAIVE_REQUESTS)
        rows.append({
            "model": name,
            "engine_rps": round(load["rps"], 2),
            "naive_rps": round(naive["rps"], 2),
            "speedup": round(load["rps"] / naive["rps"], 1),
        })
    print()
    print(format_rows(rows))
    print()
    print(render_serving_report(engine.registry))
    for row in rows:
        assert row["engine_rps"] > row["naive_rps"], (
            f"{row['model']}: serving engine ({row['engine_rps']} rps) must beat "
            f"naive compile-per-request ({row['naive_rps']} rps)")


def test_identical_triple_is_cache_hit_with_zero_recompilation(served_models, engine):
    model = served_models["squeezenet"]
    engine.warmup(model)  # may or may not compile, depending on test order
    compiles_before = engine.metrics.snapshot()["cache"]["compiles"]
    hits_before = engine.metrics.snapshot()["cache"]["hits"]

    # identical (model fingerprint, config, input signature) → pure hit
    engine.infer(model, example_inputs(model, seed=123))
    snapshot = engine.metrics.snapshot()["cache"]
    assert snapshot["compiles"] == compiles_before, "cache hit must not recompile"
    assert snapshot["hits"] == hits_before + 1

    # even a freshly rebuilt—but identical—model object is a hit
    rebuilt = build_model("squeezenet", variant="small")
    engine.infer(rebuilt, example_inputs(rebuilt, seed=124))
    assert engine.metrics.snapshot()["cache"]["compiles"] == compiles_before


def test_unbatchable_model_degrades_gracefully(engine):
    """A model whose reshape folds the batch into another axis fails the
    fusion probe, so the engine must serve it unfused — but still cached,
    warm and correct."""
    model = build_batch_folding_model()
    info = engine.warmup(model)
    assert info["batchable"] is False

    reference = ramiel_compile(model)
    feed = example_inputs(model, seed=5)
    outputs = engine.infer(model, feed)
    expected = reference.run_sequential(feed)
    for name, ref in expected.items():
        np.testing.assert_allclose(outputs[name], ref, rtol=1e-4, atol=1e-5)

    load = drive_load(engine, model, num_requests=8, concurrency=4)
    assert load["requests"] == 8
    assert engine.metrics.snapshot()["failed"] == 0

    # a multi-sample request must be rejected cleanly, not fed to the pool
    # (whose generated reshapes would fail and wedge the warm workers)
    compiles_before = engine.metrics.snapshot()["cache"]["compiles"]
    with pytest.raises(RuntimeError, match="single sample"):
        engine.infer(model, example_inputs(model, batch_size=2))
    engine.infer(model, example_inputs(model, seed=6))  # artifact still warm
    assert engine.metrics.snapshot()["cache"]["compiles"] == compiles_before


def test_concurrent_load_actually_batches(served_models, engine):
    model = served_models["googlenet"]
    engine.warmup(model)
    engine.metrics.reset()
    drive_load(engine, model, num_requests=NUM_REQUESTS, concurrency=CONCURRENCY)
    snapshot = engine.metrics.snapshot()
    assert snapshot["completed"] == NUM_REQUESTS
    assert snapshot["failed"] == 0
    assert max(snapshot["batch_histogram"]) > 1, (
        "concurrent requests against one artifact should fuse into batches; "
        f"histogram: {snapshot['batch_histogram']}")
