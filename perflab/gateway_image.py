"""Workload ``gateway_image``: the same model and engine as ``serve_closed``
``image``, plus tensor codec and HTTP — so ``serve_closed`` is the bypass
for any wire-path change.

``GatewayThread(GatewayServer(engine, {"squeezenet": model}))`` runs
in-process; perflab's own client (``client.py``) talks to it over ``nproc``
keep-alive loopback connections with pre-encoded ~250 KB JSON bodies.  Per
round: a **closed-loop** capacity phase (each connection sends on reply),
then an **open-loop** seeded-Poisson phase at a fixed offered load (a third
of capacity), timed from due time.  Saturation and backpressure stay with
``benchmarks/test_gateway_load.py``; this measures cost below saturation.
"""

from __future__ import annotations

import asyncio
import os
import random
import time
from typing import Dict, List

from repro.gateway import GatewayServer, GatewayThread, codec
from repro.gateway.http import read_request, render_response
from repro.models import build_model
from repro.observability import Tracer
from repro.pipeline import ramiel_compile
from repro.serving import example_inputs
from repro.serving.engine import EngineConfig, InferenceEngine
from repro.serving.qos import QoSConfig

from perflab.client import Client, Exchange
from perflab.harness import Bracket, Budget, Workload, median, percentile
from perflab.serve_closed import batch_references

MODEL = "squeezenet"
CLOSED_SECONDS = 0.7
OPEN_SECONDS = 3.0
#: offered load of the open-loop phase, requests per 1000 cu: a third of the
#: ~30/kcu the closed loop reaches at the commit that added the benchmark.
#: Fixed in calibrated units, so the same load is offered to every commit: a
#: faster gateway is measured at the same rate, not at a rate that grows with
#: it.  (At half of capacity the median already contains so much queueing
#: that it spread by 13 % over ten seeds.)
OPEN_RATE_PER_KCU = 10.0
CAL_SECONDS = 0.08
FEEDS = 4
WARMUP_SECONDS = 0.5


class GatewayImage(Workload):
    name = "gateway_image"

    def setup(self) -> None:
        self.connections = os.cpu_count() or 1
        self.tracer = Tracer(capacity=1 << 18, enabled=False) if self.trace else None
        self.engine = InferenceEngine(EngineConfig(qos=QoSConfig()), tracer=self.tracer)
        self.model = build_model(MODEL)
        self.engine.warmup(self.model, example_inputs(self.model, seed=0))
        self.gateway = GatewayThread(GatewayServer(self.engine, {MODEL: self.model})).start()
        self.loop = asyncio.new_event_loop()
        self.client = Client("127.0.0.1", self.gateway.port, f"/v1/models/{MODEL}/infer",
                             self.connections)
        self.loop.run_until_complete(self.client.open())
        warm = [codec.encode_request(example_inputs(self.model, seed=0))]
        replies = self.loop.run_until_complete(self.client.closed_loop(warm, WARMUP_SECONDS))
        if not replies or any(x.status != 200 for x in replies):
            raise RuntimeError("gateway warm-up did not answer 200")

    def teardown(self) -> None:
        loop = getattr(self, "loop", None)
        if loop is not None:
            loop.run_until_complete(self.client.close())
            loop.close()
            self.loop = None
        gateway = getattr(self, "gateway", None)
        if gateway is not None:
            gateway.stop()
            self.gateway = None
        engine = getattr(self, "engine", None)
        if engine is not None:
            engine.shutdown()
            self.engine = None

    def reference(self) -> None:
        self.result = ramiel_compile(self.model)
        self.feeds = [example_inputs(self.model, seed=self.seed * 1000 + i) for i in range(FEEDS)]
        self.bodies = [codec.encode_request(feed) for feed in self.feeds]
        # at most one request per connection is in flight, so no fused batch is larger
        self.refs = [batch_references(self.result, feed, self.connections) for feed in self.feeds]
        self.rng = random.Random(self.seed)
        self.request_ids = 0
        self.non200 = 0
        self.lateness: List[float] = []
        self.reply_bytes = 0

    # ------------------------------------------------------------------
    def measure(self, seconds: float) -> None:
        run = self.loop.run_until_complete
        for round_index, traced in Budget(seconds, self.trace).rounds():
            self.set_tracing(traced)
            table = self.table(traced)
            bracket = Bracket(self.cal, table, CAL_SECONDS)
            t0 = time.perf_counter()
            closed = run(self.client.closed_loop(self.bodies, CLOSED_SECONDS))
            busy = max((x.done for x in closed), default=t0) - t0
            good = self._check("closed", closed)
            bracket.add("closed", round_index, [x.done - x.sent for x in good])
            bracket.add("closed:pace", round_index, [busy / max(len(good), 1)])
            bracket.close()
            # the run's median cu, not the last reading: the rate must not jitter
            rate = OPEN_RATE_PER_KCU / (1e3 * median(self.cal.history))
            if good:  # never offer more than half of what this round just sustained:
                # past saturation the queue, and so the latency, grows without bound
                rate = min(rate, 0.5 * len(good) / busy)
            opened = run(self.client.open_loop(self.bodies, rate, OPEN_SECONDS, self.rng))
            good = self._check("open", opened)
            bracket.add("open", round_index, [x.done - x.due for x in good])
            bracket.close()
            self.lateness.extend(x.sent - x.due for x in good)
        self.set_tracing(False)
        self._summarise()
        if self.trace:
            self._layers()

    def _check(self, phase: str, exchanges: List[Exchange]) -> List[Exchange]:
        """Outside the timed phase: status, decode, bitwise comparison, spans."""
        good = []
        for x in exchanges:
            self.request_ids += 1
            if x.error is not None:
                self.ledger.record(False, f"{phase}: transport error {x.error}")
                continue
            if x.status != 200:
                self.non200 += 1
                self.ledger.record(False, f"{phase}: HTTP {x.status}: {x.reply[:120]!r}")
                continue
            try:
                outputs = codec.decode_outputs(x.reply)
            except codec.CodecError as exc:
                self.ledger.record(False, f"{phase}: reply does not decode: {exc}")
                continue
            self.reply_bytes = len(x.reply)
            if self.ledger.expect(outputs, self.refs[x.body_index],
                                  f"{phase}: output differs from every interp batch reference"):
                good.append(x)
            parent = self.spans.add(f"http:{phase}", x.due, x.done, request=self.request_ids)
            self.spans.add("client.wait_for_connection", x.due, x.sent,
                           request=self.request_ids, parent=parent)
            self.spans.add("gateway.exchange", x.sent, x.done,
                           request=self.request_ids, parent=parent)
        return good

    # ------------------------------------------------------------------
    def _summarise(self) -> None:
        plain = self.plain
        latency = plain.value("open")
        tail, n_tail = plain.tail(["open"], latency)
        self.open_p95 = tail
        self.e2e = {
            "latency_cu": latency,
            "alt_latency_cu": plain.value("closed"),
        }
        self.capacity_per_kcu = 1e3 / plain.value("closed:pace")
        self.info.append(
            f"closed p50 {plain.value('closed'):8.2f} cu {plain.raw_ms('closed'):7.2f} ms | capacity "
            f"{self.capacity_per_kcu:7.2f} /kcu {1e3 / plain.raw_ms('closed:pace'):6.1f} rps "
            f"({self.connections} connections, n={plain.count('closed')})")
        self.info.append(
            f"open   p50 {latency:8.2f} cu {plain.raw_ms('open'):7.2f} ms | p95 {tail:8.2f} cu "
            f"(n={n_tail}) at {OPEN_RATE_PER_KCU:g}/kcu offered | generator late p95 "
            f"{percentile(self.lateness, 95) * 1e3:.2f} ms")

    def _layers(self) -> None:
        layers = self.layers
        layers["gateway.server.capacity_per_kcu"] = self.capacity_per_kcu
        layers["gateway.server.non200"] = self.non200
        layers["gateway.server.open_p95_cu"] = self.open_p95
        layers["gateway.client.late_p95_ms"] = percentile(self.lateness, 95) * 1e3
        layers["gateway.codec.request_bytes"] = len(self.bodies[0])
        layers["gateway.codec.response_bytes"] = self.reply_bytes
        self.spans.enabled = True
        layers.update(self._wire_functions())
        layers["gateway.server.overhead_cu"] = self._server_overhead()
        self.spans.enabled = False
        layers["observability.trace_overhead"] = self.traced.value("open") / self.plain.value("open")

    def _wire_functions(self) -> Dict[str, float]:
        """Time the codec and HTTP functions directly, on this run's bytes."""
        body, outputs = self.bodies[0], self.refs[0][0]
        reply = codec.encode_outputs(outputs)
        raw = (f"POST /v1/models/{MODEL}/infer HTTP/1.1\r\nHost: x\r\n"
               f"Content-Length: {len(body)}\r\n\r\n").encode("latin-1") + body

        async def parse_once():
            reader = asyncio.StreamReader(limit=len(raw) + 1024)
            reader.feed_data(raw)
            reader.feed_eof()
            return await read_request(reader)

        calls = {
            "gateway.codec.decode_request_cu": lambda: codec.decode_request(body),
            "gateway.codec.encode_outputs_cu": lambda: codec.encode_outputs(outputs),
            "gateway.http.read_request_cu": lambda: self.loop.run_until_complete(parse_once()),
            "gateway.http.render_response_cu": lambda: render_response(200, reply),
        }
        out = {}
        cu0 = self.cal.measure()
        seconds = {}
        for name, call in calls.items():
            times = []
            with self.spans.span(name[:-3]):
                for _ in range(15):
                    t0 = time.perf_counter()
                    call()
                    times.append(time.perf_counter() - t0)
            seconds[name] = median(times)
        cu = (cu0 + self.cal.measure()) / 2.0
        for name, value in seconds.items():
            out[name] = value / cu
        return out

    def _server_overhead(self) -> float:
        """1-connection HTTP p50 minus in-process submit->result p50 for the
        same request: what codec + HTTP + the asyncio bridge add."""
        cu0 = self.cal.measure()
        http = self.loop.run_until_complete(
            self.client.closed_loop(self.bodies[:1], 0.6, connections=1))
        http = self._check("closed", http)
        direct = []
        with self.spans.span("engine.submit->result"):
            for _ in range(len(http)):
                t0 = time.perf_counter()
                self.engine.submit(self.model, self.feeds[0]).result(timeout=60.0)
                direct.append(time.perf_counter() - t0)
        cu = (cu0 + self.cal.measure()) / 2.0
        return (median(x.done - x.sent for x in http) - median(direct)) / cu
