"""Tests for the HTTP gateway: codec, HTTP/1.1 layer, server, lifecycle.

The codec tests pin the bitwise-exactness contract the acceptance bar
depends on; the HTTP tests drive the parser with in-memory streams (no
sockets); the server tests boot a real :class:`GatewayThread` over a real
engine serving the small conftest models and exercise routing, error
mapping (400/403/404/405/429/503/504 + Retry-After) and the graceful
drain contract: in-flight requests complete while new ones get 503.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from concurrent.futures import Future

import numpy as np
import pytest

from repro.gateway import codec
from repro.gateway.http import (
    HTTPError,
    parse_response,
    read_request,
    render_response,
)
from repro.gateway.loadgen import (
    LoadSpec,
    TenantReport,
    _fire_one,
    http_request,
    run_load,
)
from repro.gateway.server import GatewayConfig, GatewayServer, GatewayThread
from repro.serving import (
    EngineConfig,
    InferenceEngine,
    QoSConfig,
    TenantConfig,
    TenantQueueFull,
    example_inputs,
)
from tests.conftest import build_chain_model, build_diamond_model


# ---------------------------------------------------------------------------
# Codec
# ---------------------------------------------------------------------------
class TestCodec:
    @pytest.mark.parametrize("dtype", ["float32", "float64", "int32", "int64"])
    def test_roundtrip_is_bitwise_exact(self, dtype, rng):
        if dtype.startswith("float"):
            array = rng.standard_normal((3, 4)).astype(dtype)
        else:
            array = rng.integers(-1000, 1000, size=(3, 4)).astype(dtype)
        # through the full JSON wire format, as the server does it
        wire = json.dumps(codec.encode_array(array)).encode()
        decoded = codec.decode_array(json.loads(wire))
        assert decoded.dtype == array.dtype
        assert decoded.shape == array.shape
        assert np.array_equal(
            decoded.view(np.uint8), array.view(np.uint8))  # bit-for-bit

    def test_extreme_float32_values_survive(self):
        array = np.array([np.finfo(np.float32).max, np.finfo(np.float32).tiny,
                          -0.0, 1e-45, np.pi], dtype=np.float32)
        wire = json.dumps(codec.encode_array(array)).encode()
        decoded = codec.decode_array(json.loads(wire))
        assert np.array_equal(decoded.view(np.uint8), array.view(np.uint8))

    def test_request_roundtrip(self, rng):
        feed = {"x": rng.standard_normal((1, 3)).astype(np.float32),
                "mask": rng.integers(0, 2, size=(1, 3)).astype(np.int64)}
        decoded = codec.decode_request(codec.encode_request(feed))
        for name, array in feed.items():
            np.testing.assert_array_equal(decoded[name], array)

    def test_nested_list_form_accepted(self):
        decoded = codec.decode_array([[1.0, 2.0], [3.0, 4.0]], "x")
        assert decoded.shape == (2, 2)
        assert decoded.dtype == np.float32

    def test_malformed_bodies_raise_codec_error(self):
        with pytest.raises(codec.CodecError):
            codec.decode_request(b"not json")
        with pytest.raises(codec.CodecError):
            codec.decode_request(b'{"outputs": {}}')
        with pytest.raises(codec.CodecError):
            codec.decode_request(b'{"inputs": {}}')
        with pytest.raises(codec.CodecError):
            codec.decode_request(
                b'{"inputs": {"x": {"data": [1, 2], "shape": [3]}}}')
        with pytest.raises(codec.CodecError):
            codec.decode_array({"shape": [1]}, "x")
        with pytest.raises(codec.CodecError):
            codec.decode_array("scalar?", "x")


# ---------------------------------------------------------------------------
# HTTP layer (in-memory streams, no sockets)
# ---------------------------------------------------------------------------
def parse(raw: bytes, max_body: int = 1 << 20):
    async def _run():
        reader = asyncio.StreamReader()
        reader.feed_data(raw)
        reader.feed_eof()
        return await read_request(reader, max_body=max_body)
    return asyncio.run(_run())


class TestHTTP:
    def test_parse_get(self):
        request = parse(b"GET /healthz?v=1 HTTP/1.1\r\nHost: x\r\n\r\n")
        assert request.method == "GET"
        assert request.path == "/healthz"
        assert request.query == "v=1"
        assert request.header("host") == "x"
        assert request.keep_alive

    def test_parse_post_with_body(self):
        request = parse(b"POST /p HTTP/1.1\r\nContent-Length: 4\r\n\r\nabcd")
        assert request.body == b"abcd"

    def test_clean_eof_returns_none(self):
        assert parse(b"") is None

    def test_connection_close_and_http10(self):
        assert not parse(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n").keep_alive
        assert not parse(b"GET / HTTP/1.0\r\n\r\n").keep_alive
        assert parse(b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n").keep_alive

    def test_malformed_request_line(self):
        with pytest.raises(HTTPError) as excinfo:
            parse(b"GARBAGE\r\n\r\n")
        assert excinfo.value.status == 400

    def test_unsupported_version(self):
        with pytest.raises(HTTPError):
            parse(b"GET / HTTP/2\r\n\r\n")

    def test_chunked_rejected_with_501(self):
        with pytest.raises(HTTPError) as excinfo:
            parse(b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n")
        assert excinfo.value.status == 501

    def test_post_without_length_rejected(self):
        with pytest.raises(HTTPError) as excinfo:
            parse(b"POST / HTTP/1.1\r\n\r\n")
        assert excinfo.value.status == 400

    def test_oversize_body_rejected_with_413(self):
        with pytest.raises(HTTPError) as excinfo:
            parse(b"POST / HTTP/1.1\r\nContent-Length: 100\r\n\r\n" + b"x" * 100,
                  max_body=10)
        assert excinfo.value.status == 413

    def test_render_and_parse_response(self):
        raw = render_response(429, b'{"e": 1}',
                              extra_headers={"Retry-After": "2"})
        status, headers, body = parse_response(raw)
        assert status == 429
        assert headers["retry-after"] == "2"
        assert headers["content-length"] == "8"
        assert body == b'{"e": 1}'


# ---------------------------------------------------------------------------
# Server over a real engine
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def gateway_stack():
    model = build_diamond_model()
    engine = InferenceEngine(EngineConfig(
        max_batch_size=4,
        qos=QoSConfig(tenants=(TenantConfig("gold", weight=3.0),
                               TenantConfig("free", weight=1.0)))))
    server = GatewayServer(engine, {"diamond": model})
    thread = GatewayThread(server).start()
    yield engine, server, thread, model
    thread.stop()
    engine.shutdown()


def call(port, method, path, body=b"", headers=None):
    return asyncio.run(http_request("127.0.0.1", port, method, path,
                                    body=body, headers=headers or {}))


class TestGatewayServer:
    def test_healthz(self, gateway_stack):
        _, _, thread, _ = gateway_stack
        status, _, body = call(thread.port, "GET", "/healthz")
        assert status == 200
        payload = json.loads(body)
        assert payload["status"] == "ok"
        assert payload["models"] == ["diamond"]

    def test_infer_matches_direct_submit_bitwise(self, gateway_stack):
        engine, _, thread, model = gateway_stack
        feed = example_inputs(model)
        reference = engine.submit(model, feed, tenant="gold").result(timeout=60)
        status, _, body = call(
            thread.port, "POST", "/v1/models/diamond/infer",
            body=codec.encode_request(feed), headers={"X-Tenant": "gold"})
        assert status == 200, body
        outputs = codec.decode_outputs(body)
        for name, ref in reference.items():
            ref = np.asarray(ref)
            assert outputs[name].dtype == ref.dtype
            assert np.array_equal(outputs[name].view(np.uint8),
                                  ref.view(np.uint8))

    def test_unknown_model_404(self, gateway_stack):
        _, _, thread, _ = gateway_stack
        status, _, body = call(thread.port, "POST", "/v1/models/nope/infer",
                               body=b'{"inputs": {"x": [1.0]}}')
        assert status == 404
        assert b"nope" in body

    def test_unknown_route_404(self, gateway_stack):
        _, _, thread, _ = gateway_stack
        assert call(thread.port, "GET", "/teapot")[0] == 404

    def test_wrong_method_405(self, gateway_stack):
        _, _, thread, _ = gateway_stack
        assert call(thread.port, "POST", "/healthz", body=b"{}")[0] == 405
        assert call(thread.port, "GET", "/v1/models/diamond/infer")[0] == 405

    def test_bad_body_400(self, gateway_stack):
        _, _, thread, _ = gateway_stack
        status, _, body = call(thread.port, "POST",
                               "/v1/models/diamond/infer", body=b"not json")
        assert status == 400
        assert b"error" in body

    def test_shape_mismatch_400(self, gateway_stack):
        _, _, thread, model = gateway_stack
        bogus = {"x": np.zeros((1, 2), dtype=np.float32)}
        status, _, _ = call(thread.port, "POST", "/v1/models/diamond/infer",
                            body=codec.encode_request(bogus))
        assert status == 400

    def test_expired_deadline_504(self, gateway_stack):
        _, _, thread, model = gateway_stack
        status, _, _ = call(thread.port, "POST", "/v1/models/diamond/infer",
                            body=codec.encode_request(example_inputs(model)),
                            headers={"X-Deadline-S": "0"})
        assert status == 504

    def test_malformed_deadline_400(self, gateway_stack):
        _, _, thread, model = gateway_stack
        status, _, _ = call(thread.port, "POST", "/v1/models/diamond/infer",
                            body=codec.encode_request(example_inputs(model)),
                            headers={"X-Deadline-S": "soon"})
        assert status == 400

    def test_metrics_exposition(self, gateway_stack):
        _, _, thread, _ = gateway_stack
        status, headers, body = call(thread.port, "GET", "/metrics")
        assert status == 200
        assert headers["content-type"].startswith("text/plain")
        for family in (b"gateway_requests_total", b"gateway_request_seconds",
                       b"qos_admitted_total", b"serving_cached_artifacts"):
            assert family in body, family

    def test_queue_full_maps_to_429_with_retry_after(self, gateway_stack):
        engine, server, thread, model = gateway_stack
        original = engine.submit

        def rejecting(*args, **kwargs):
            raise TenantQueueFull("tenant queue is full", retry_after_s=1.5)

        engine.submit = rejecting
        try:
            status, headers, _ = call(
                thread.port, "POST", "/v1/models/diamond/infer",
                body=codec.encode_request(example_inputs(model)))
        finally:
            engine.submit = original
        assert status == 429
        assert headers["retry-after"] == "1.5"

    def test_request_lifecycle_spans_recorded(self):
        from repro.observability import Tracer

        model = build_chain_model()
        tracer = Tracer()
        engine = InferenceEngine(
            EngineConfig(max_batch_size=2, qos=QoSConfig()), tracer=tracer)
        server = GatewayServer(engine, {"chain": model})
        try:
            with GatewayThread(server) as thread:
                status, _, _ = call(
                    thread.port, "POST", "/v1/models/chain/infer",
                    body=codec.encode_request(example_inputs(model)))
                assert status == 200
        finally:
            engine.shutdown()
        cats = {event.name for event in tracer.events()}
        for name in ("gateway.request", "qos.admit", "qos.queue",
                     "batch.execute", "batch.respond"):
            assert name in cats, name
        assert "request.queue" not in cats  # one queue, one queueing span


class TestGracefulDrain:
    def test_inflight_completes_while_new_requests_get_503(self):
        """The drain contract: begin_drain() 503s new work, yet a request
        accepted *before* the drain still returns its real answer."""
        model = build_chain_model()
        engine = InferenceEngine(EngineConfig(max_batch_size=2))
        server = GatewayServer(engine, {"chain": model})
        thread = GatewayThread(server).start()
        feed = example_inputs(model)
        reference = engine.infer(model, feed)

        release = threading.Event()
        original = engine.submit

        def held_submit(*args, **kwargs):
            inner = original(*args, **kwargs)
            outer: Future = Future()

            def _forward():
                release.wait(timeout=10)
                outer.set_result(inner.result(timeout=10))
            threading.Thread(target=_forward, daemon=True).start()
            return outer

        engine.submit = held_submit
        results = {}

        def client():
            results["inflight"] = call(
                thread.port, "POST", "/v1/models/chain/infer",
                body=codec.encode_request(feed))

        try:
            worker = threading.Thread(target=client)
            worker.start()
            # Wait until the request is inside the gateway, then drain.
            deadline = time.monotonic() + 5
            while server._active == 0 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert server._active == 1
            thread.begin_drain()
            time.sleep(0.05)

            engine.submit = original
            status, _, _ = call(thread.port, "POST",
                                "/v1/models/chain/infer",
                                body=codec.encode_request(feed))
            assert status == 503  # new work rejected mid-drain
            status, _, body = call(thread.port, "GET", "/healthz")
            assert status == 503
            assert json.loads(body)["status"] == "draining"

            release.set()  # let the in-flight request finish
            worker.join(timeout=10)
            status, _, body = results["inflight"]
            assert status == 200
            outputs = codec.decode_outputs(body)
            for name, ref in reference.items():
                np.testing.assert_array_equal(outputs[name], np.asarray(ref))
            assert thread.stop()  # clean shutdown: nothing dropped
        finally:
            release.set()
            engine.submit = original
            thread.stop()
            engine.shutdown()


class TestOpenLoopHarness:
    def test_small_burst_no_drops_and_fair_outcomes(self):
        model = build_diamond_model()
        engine = InferenceEngine(EngineConfig(
            max_batch_size=4,
            qos=QoSConfig(tenants=(TenantConfig("gold", weight=3.0),
                                   TenantConfig("free", weight=1.0)))))
        server = GatewayServer(engine, {"diamond": model})
        body = codec.encode_request(example_inputs(model))
        try:
            engine.warmup(model)
            with GatewayThread(server) as thread:
                report = asyncio.run(run_load(
                    "127.0.0.1", thread.port,
                    [LoadSpec("gold", "diamond", body, rate_rps=40.0),
                     LoadSpec("free", "diamond", body, rate_rps=15.0)],
                    duration_s=1.0, seed=7))
                assert thread.stop()
        finally:
            engine.shutdown()
        assert report.total_dropped == 0
        assert report.total_ok > 0
        for name in ("gold", "free"):
            tenant = report.tenants[name]
            assert tenant.sent == (tenant.ok + tenant.rejected
                                   + tenant.expired_504 + tenant.other_status)
        assert "gold" in report.render()
        assert "late95ms" in report.render()
        for name in ("gold", "free"):
            assert len(report.tenants[name].lateness_s) == report.tenants[name].sent

    def test_latency_is_timed_from_due_time_not_from_send(self):
        """A request fired half a second after it was due carries that
        stall in its latency and in the generator-lateness column, however
        fast the server answers it."""
        async def scenario() -> TenantReport:
            async def answer(reader, writer):
                await reader.readuntil(b"\r\n\r\n")
                writer.write(render_response(200, b"{}"))
                await writer.drain()
                writer.close()

            server = await asyncio.start_server(answer, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            report = TenantReport("t")
            try:
                await _fire_one(
                    "127.0.0.1", port, LoadSpec("t", "m", b"", rate_rps=1.0),
                    report, 5.0, due=asyncio.get_running_loop().time() - 0.5)
            finally:
                server.close()
                await server.wait_closed()
            return report

        report = asyncio.run(scenario())
        assert report.ok == 1
        assert report.latencies_s[0] >= report.lateness_s[0] >= 0.5
        summary = report.summary(1.0)
        assert summary["p50_ms"] >= summary["late_p95_ms"] >= 500.0
