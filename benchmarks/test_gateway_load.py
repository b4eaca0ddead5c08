"""Gateway load harness: backpressure, fairness and bitwise parity gates.

Two acceptance bars for the HTTP gateway + QoS subsystem:

1. **Backpressure correctness at 2x capacity** — the engine's serial
   capacity is *measured* (median warm latency of the served model with
   batching and concurrency pinned to one), then the open-loop harness
   (:mod:`repro.gateway.loadgen`) offers twice that rate from two tenants
   with a 3:1 weight skew.  Under that saturation, deterministically
   (tier-1):

   * zero requests drop without an HTTP answer,
   * every non-2xx answer is an explicit 429/503/504,
   * some requests *are* rejected (the load really saturated; admission
     really pushed back),

   and as wall-clock bounds (``perf`` marker, ``-m "perf or not perf"``):

   * p99 of the admitted requests stays bounded by the queue depth the
     config allows (depth x measured service time, with slack) — latency
     does not grow with offered load,
   * the engine keeps doing useful work (goodput at least half the
     measured capacity), and no tenant receives less than half its
     weighted share of the completed work.

2. **Bitwise parity for every zoo model** — a response served over HTTP
   (JSON tensor codec and all) is bit-for-bit identical to calling
   ``InferenceEngine.submit`` directly with the same inputs.

Environment knobs:

* ``REPRO_GATEWAY_MODELS``   — parity-model list (default: the whole zoo)
* ``REPRO_GATEWAY_DURATION`` — saturation window seconds (default 4)
"""

from __future__ import annotations

import asyncio
import os
import time

import numpy as np
import pytest

from repro.gateway import GatewayServer, GatewayThread, LoadSpec, codec, run_load
from repro.models import build_model, list_models
from repro.serving import (
    EngineConfig,
    InferenceEngine,
    QoSConfig,
    TenantConfig,
    example_inputs,
)

GATEWAY_MODELS = [name.strip() for name in os.environ.get(
    "REPRO_GATEWAY_MODELS", ",".join(list_models())).split(",") if name.strip()]
DURATION_S = float(os.environ.get("REPRO_GATEWAY_DURATION", "4"))

#: slow enough (~45 ms serial) that 2x capacity is a modest connection
#: rate (~45 rps), and with a sub-KB request body — so the in-process
#: load harness does not meaningfully distort the service time it is
#: measuring against.  The image models' service time is a few ms: twice
#: their capacity is a connection rate the harness, sharing this process
#: and its GIL, could not offer without becoming the bottleneck itself.
SATURATION_MODEL = "bert"
SATURATION_VARIANT = "default"

GOLD_WEIGHT, FREE_WEIGHT = 3.0, 1.0
TOTAL_WEIGHT = GOLD_WEIGHT + FREE_WEIGHT
TENANT_QUEUE, GLOBAL_QUEUE = 8, 16


@pytest.fixture(scope="module")
def saturation():
    """One open-loop run at twice the measured serial capacity.

    Shared by the deterministic accounting test (tier-1) and the
    ``perf``-marked wall-clock bounds, so a job that selects both pays for
    the saturation window once.
    """
    model = build_model(SATURATION_MODEL, variant=SATURATION_VARIANT)
    engine = InferenceEngine(EngineConfig(
        # Pin capacity to serial execution so "2x capacity" is a measured,
        # well-defined number: no batch fusion, one request in flight.
        max_batch_size=1,
        qos=QoSConfig(
            tenants=(TenantConfig("gold", weight=GOLD_WEIGHT,
                                  max_queue=TENANT_QUEUE),
                     TenantConfig("free", weight=FREE_WEIGHT,
                                  max_queue=TENANT_QUEUE)),
            max_queue_depth=GLOBAL_QUEUE)))
    feed = example_inputs(model)
    body = codec.encode_request(feed)
    try:
        engine.warmup(model)
        # Measured serial capacity: median warm latency of the direct path.
        samples = []
        for _ in range(10):
            start = time.perf_counter()
            engine.submit(model, feed, tenant="gold").result(timeout=60)
            samples.append(time.perf_counter() - start)
        service_s = sorted(samples)[len(samples) // 2]
        capacity_rps = 1.0 / service_s

        server = GatewayServer(engine, {SATURATION_MODEL: model})
        with GatewayThread(server) as gateway:
            # Open loop at 2x capacity, split evenly across the tenants —
            # both saturate, and the 3:1 weights decide who gets served.
            report = asyncio.run(run_load(
                "127.0.0.1", gateway.port,
                [LoadSpec("gold", SATURATION_MODEL, body,
                          rate_rps=capacity_rps),
                 LoadSpec("free", SATURATION_MODEL, body,
                          rate_rps=capacity_rps)],
                duration_s=DURATION_S, seed=42))
            drained = gateway.stop()
    finally:
        engine.shutdown()

    print(f"\nmeasured capacity {capacity_rps:.1f} rps "
          f"(service {service_s * 1e3:.1f} ms), offered {2 * capacity_rps:.1f} rps "
          f"for {report.duration_s:.1f}s")
    print(report.render())
    return report, drained, service_s, capacity_rps


def test_backpressure_correctness_at_2x_capacity(saturation):
    """The accounting half: what happened to every request, independent of
    how fast this machine served them."""
    report, drained, _, _ = saturation
    # -- zero dropped, clean shutdown ---------------------------------
    assert report.total_dropped == 0, "requests vanished without an answer"
    assert drained, "gateway shutdown left requests in flight"
    # -- every rejection is explicit (429/503/504, nothing else) ------
    for tenant in report.tenants.values():
        assert tenant.other_status == 0, \
            f"{tenant.tenant} saw unexpected status codes"
    # -- the offered load genuinely saturated admission ----------------
    assert report.total_rejected > 0, \
        "2x-capacity load produced no backpressure — not saturated"


@pytest.mark.perf
def test_backpressure_latency_goodput_fairness_at_2x_capacity(saturation):
    """The wall-clock half: p99, goodput and fairness against the measured
    service time.

    Protects perflab's ``gateway_image`` ``alt_latency_cu`` (the closed-loop
    capacity phase) and ``latency_cu`` (open loop below capacity)."""
    report, _, service_s, capacity_rps = saturation
    # -- p99 of admitted requests is bounded by the queueing the config
    #    allows, not by the offered load.  A request admitted at the back
    #    of its tenant queue waits at most TENANT_QUEUE predecessors,
    #    each accompanied by the other tenant's weighted share of
    #    dispatches (its queue refills continuously under open-loop
    #    saturation): worst case TENANT_QUEUE * total_weight / weight
    #    serial dispatch slots.  Without admission control the backlog —
    #    and hence p99 — would instead grow with the window duration.
    for name, weight in (("gold", GOLD_WEIGHT), ("free", FREE_WEIGHT)):
        worst_slots = TENANT_QUEUE * TOTAL_WEIGHT / weight
        p99_bound_s = 2.0 * worst_slots * service_s + 0.75
        p99_s = report.tenants[name].percentile_ms(99) / 1e3
        assert p99_s <= p99_bound_s, (
            f"{name} p99 {p99_s * 1e3:.0f} ms exceeds bound "
            f"{p99_bound_s * 1e3:.0f} ms ({worst_slots:.0f} slots x "
            f"{service_s * 1e3:.1f} ms service)")
    # -- goodput under saturation: overload costs rejections, not work --
    goodput = report.total_ok / report.duration_s
    assert goodput >= 0.5 * capacity_rps, (
        f"goodput {goodput:.1f} rps fell below half the measured "
        f"capacity {capacity_rps:.1f} rps")
    # -- weighted fairness: nobody below half their weighted share -----
    total_weight = GOLD_WEIGHT + FREE_WEIGHT
    for name, weight in (("gold", GOLD_WEIGHT), ("free", FREE_WEIGHT)):
        share = report.tenants[name].ok
        floor = 0.5 * (weight / total_weight) * report.total_ok
        assert share >= floor, (
            f"tenant {name} completed {share} requests, below half its "
            f"weighted share ({floor:.0f} of {report.total_ok})")


@pytest.mark.parametrize("name", GATEWAY_MODELS)
def test_gateway_response_bitwise_matches_direct_submit(name):
    model = build_model(name, variant="small")
    engine = InferenceEngine(EngineConfig(max_batch_size=4, qos=QoSConfig()))
    feed = example_inputs(model)
    try:
        reference = engine.submit(model, feed).result(timeout=300)
        server = GatewayServer(engine, {name: model})
        with GatewayThread(server) as gateway:
            from repro.gateway.loadgen import http_request

            status, _, body = asyncio.run(http_request(
                "127.0.0.1", gateway.port, "POST",
                f"/v1/models/{name}/infer", body=codec.encode_request(feed),
                timeout=300.0))
    finally:
        engine.shutdown()
    assert status == 200, body[:500]
    outputs = codec.decode_outputs(body)
    assert sorted(outputs) == sorted(reference)
    for out_name, ref in reference.items():
        ref = np.asarray(ref)
        got = outputs[out_name]
        assert got.dtype == ref.dtype, out_name
        assert got.shape == ref.shape, out_name
        assert np.array_equal(got.view(np.uint8), ref.view(np.uint8)), (
            f"{name}/{out_name}: HTTP response differs from direct submit")
