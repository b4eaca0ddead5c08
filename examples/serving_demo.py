"""Serving demo: one engine, two models, concurrent request traffic.

Demonstrates the `repro.serving` subsystem end to end:

1. build two zoo models (reduced-size variants keep the demo fast),
2. warm the engine up — each model is Ramiel-compiled exactly once into
   the compiled-artifact cache, served through its cached execution plan,
3. fire concurrent requests from many threads; each of a model's lane
   replicas takes its share of what is queued the moment it is free (no
   closing timer), so requests that arrive while the replicas execute
   fuse into their next micro-batches,
4. print the serving metrics report: throughput, latency percentiles,
   batch-size histogram and cache hit rate.

Run with::

    python examples/serving_demo.py

With ``--gateway`` the same engine is additionally fronted by the HTTP
gateway: the demo boots :class:`repro.gateway.GatewayServer` on a free
port with two QoS tenants (``gold`` at weight 3, ``free`` at weight 1),
drives concurrent open-loop HTTP clients from both tenants, and prints a
per-tenant latency report before draining the server::

    python examples/serving_demo.py --gateway
"""

from __future__ import annotations

import asyncio
import sys
import threading

from repro.analysis.reports import render_serving_report
from repro.models import build_model
from repro.serving import EngineConfig, InferenceEngine, example_inputs

MODELS = ["squeezenet", "googlenet"]
REQUESTS_PER_MODEL = 24
CONCURRENCY = 6


def main() -> None:
    engine = InferenceEngine(EngineConfig(max_batch_size=8))
    models = [build_model(name, variant="small") for name in MODELS]

    print("--- warmup (compile once per model) ------------------------")
    for model in models:
        summary = engine.warmup(model)
        print(f"  {summary['model']:12s} compiled in {summary['warmup_time_s']:.3f}s "
              f"(batchable={summary['batchable']})")

    # Concurrent traffic: CONCURRENCY worker threads per model, each sending
    # a stream of requests.  Requests that arrive while a model's replicas
    # are executing are fused into their next micro-batches.
    print("\n--- serving concurrent traffic -----------------------------")
    errors = []

    def client(model, worker_index: int) -> None:
        per_worker = REQUESTS_PER_MODEL // CONCURRENCY
        for i in range(per_worker):
            try:
                engine.infer(model, example_inputs(model, seed=worker_index * 1000 + i))
            except Exception as exc:  # noqa: BLE001 - report at the end
                errors.append(exc)

    threads = [threading.Thread(target=client, args=(model, w))
               for model in models for w in range(CONCURRENCY)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    if errors:
        raise SystemExit(f"serving failed: {errors[:3]}")

    print(f"  served {len(models) * REQUESTS_PER_MODEL} requests "
          f"across {len(models)} models with zero recompilation")

    print("\n--- metrics -------------------------------------------------")
    print(render_serving_report(engine.registry))
    engine.shutdown()


def gateway_main() -> None:
    """Front the engine with the HTTP gateway and drive two tenants."""
    from repro.gateway import GatewayServer, GatewayThread, LoadSpec, codec, run_load
    from repro.serving import QoSConfig, TenantConfig

    engine = InferenceEngine(EngineConfig(
        max_batch_size=8,
        qos=QoSConfig(tenants=(TenantConfig("gold", weight=3.0),
                               TenantConfig("free", weight=1.0)))))
    models = {name: build_model(name, variant="small") for name in MODELS}

    print("--- warmup (compile once per model) ------------------------")
    for model in models.values():
        summary = engine.warmup(model)
        print(f"  {summary['model']:12s} compiled in "
              f"{summary['warmup_time_s']:.3f}s")

    server = GatewayServer(engine, models)
    with GatewayThread(server) as gateway:
        print(f"\n--- gateway listening on 127.0.0.1:{gateway.port} ----------")
        print("  POST /v1/models/{name}/infer   (X-Tenant: gold|free)")

        # Open-loop HTTP traffic: each tenant Poisson-fires against its
        # model on fresh connections, independent of completions — the
        # QoS admission queue arbitrates by weight.
        specs = [
            LoadSpec("gold", MODELS[0],
                     codec.encode_request(example_inputs(models[MODELS[0]])),
                     rate_rps=30.0),
            LoadSpec("free", MODELS[1],
                     codec.encode_request(example_inputs(models[MODELS[1]])),
                     rate_rps=30.0),
        ]
        report = asyncio.run(run_load("127.0.0.1", gateway.port, specs,
                                      duration_s=3.0, seed=1))

        print("\n--- per-tenant latency report ------------------------------")
        print(report.render())
        drained = gateway.stop()

    print(f"\n  drained cleanly: {drained}")
    print("\n--- metrics -------------------------------------------------")
    print(render_serving_report(engine.registry))
    engine.shutdown()
    if report.total_dropped or not drained:
        raise SystemExit("gateway demo failed: dropped requests or dirty drain")


if __name__ == "__main__":
    if "--gateway" in sys.argv[1:]:
        gateway_main()
    else:
        main()
