"""The asyncio HTTP gateway over one :class:`InferenceEngine`.

``GatewayServer`` is the network front door the ROADMAP's "heavy traffic"
north star needs: a stdlib-only ``asyncio.start_server`` loop speaking
just enough HTTP/1.1 (:mod:`repro.gateway.http`) to expose

* ``POST /v1/models/{name}/infer`` — JSON tensors in, JSON tensors out
  (:mod:`repro.gateway.codec`: base64 raw buffers, or number lists for a
  hand-typed request, answered in kind); tenant via the ``X-Tenant``
  header, per-request deadline budget via ``X-Deadline-S``.
* ``GET /healthz`` — liveness plus drain state (503 while draining so
  load balancers stop routing here before shutdown).
* ``GET /metrics`` — Prometheus text from the engine's one
  :class:`~repro.observability.MetricsRegistry` (``gateway_*``,
  ``qos_*`` and ``serving_*`` families together).

Requests bridge onto the engine without blocking the event loop:
``submit`` does bounded work (validate, push onto the admission queue, one
cache lookup — a cold artifact compiles on its own lane thread), so it is
called inline, and the returned ``concurrent.futures.Future`` is awaited
through ``asyncio.wrap_future``.  QoS rejections map to honest status codes —
429/503 with ``Retry-After`` from the admission layer's dispatch-rate
estimate, 504 for exhausted deadline budgets, 403 for unknown tenants
under strict tenancy — the overload contract the load harness
(:mod:`repro.gateway.loadgen`) measures against.

Lifecycle: ``begin_drain()`` flips new infer requests to 503 while
in-flight ones finish (``await drained()``), then ``shutdown()`` closes
the listener.  :class:`GatewayThread` packages the whole lifecycle on a
background thread for tests, benchmarks and the ``ramiel load`` verb.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import math
import threading
from typing import Dict, Mapping, Optional

from repro.gateway import codec
from repro.gateway.http import (
    DEFAULT_MAX_BODY,
    HTTPError,
    HTTPRequest,
    read_request,
    render_response,
)
from repro.serving.batching import ServingError
from repro.serving.engine import InferenceEngine, ShapeMismatchError
from repro.serving.qos import QoSError

__all__ = ["GatewayConfig", "GatewayServer", "GatewayThread"]


@dataclasses.dataclass
class GatewayConfig:
    """Configuration of one :class:`GatewayServer`."""

    host: str = "127.0.0.1"
    #: 0 binds an ephemeral port (read it back from ``server.port``)
    port: int = 0
    #: request-body size bound (413 beyond it)
    max_body_bytes: int = DEFAULT_MAX_BODY
    #: per-request wall-clock bound awaiting the engine's answer
    response_timeout_s: float = 300.0


class GatewayServer:
    """Serve one engine's models over HTTP; see the module docstring."""

    def __init__(self, engine: InferenceEngine, models: Mapping[str, object],
                 config: Optional[GatewayConfig] = None) -> None:
        self.engine = engine
        self.models = dict(models)
        self.config = config or GatewayConfig()
        self.registry = engine.registry
        self.tracer = engine.tracer
        self._server: Optional[asyncio.AbstractServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._draining = False
        self._active = 0
        self._idle: Optional[asyncio.Event] = None
        self._requests_total: Dict[tuple, object] = {}
        self._latency_hist = self.registry.histogram(
            "gateway_request_seconds",
            "Wall-clock latency of gateway requests (accept to respond)")
        self._active_gauge = self.registry.gauge(
            "gateway_active_requests", "Requests currently being served")
        self._bytes_in = self.registry.counter(
            "gateway_bytes_received_total", "Request body bytes received")
        self._bytes_out = self.registry.counter(
            "gateway_bytes_sent_total", "Response bytes sent")

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind the listener (ephemeral port resolved afterwards)."""
        self._loop = asyncio.get_running_loop()
        self._idle = asyncio.Event()
        self._idle.set()
        self._server = await asyncio.start_server(
            self._handle_connection, host=self.config.host,
            port=self.config.port,
            limit=max(self.config.max_body_bytes, DEFAULT_MAX_BODY) + 64 * 1024)

    @property
    def port(self) -> int:
        """The bound port (after :meth:`start`)."""
        if self._server is None or not self._server.sockets:
            raise RuntimeError("server is not started")
        return self._server.sockets[0].getsockname()[1]

    @property
    def draining(self) -> bool:
        """True once :meth:`begin_drain` has been called."""
        return self._draining

    def begin_drain(self) -> None:
        """Stop accepting new inference work; in-flight requests finish.

        New ``POST .../infer`` requests get 503 + ``Retry-After`` and
        ``/healthz`` reports draining, while already-accepted requests
        run to completion — the graceful half of shutdown, split out so
        callers (and tests) can observe the drain window.
        """
        self._draining = True
        # Reject at the admission layer too, so direct in-process
        # submitters see the same drain the gateway advertises.
        self.engine.qos.begin_drain()

    async def drained(self, timeout: float = 30.0) -> bool:
        """Wait until no request is in flight; False on timeout."""
        if self._idle is None:
            return True
        try:
            await asyncio.wait_for(self._idle.wait(), timeout=timeout)
            return True
        except asyncio.TimeoutError:
            return False

    async def shutdown(self, drain_timeout: float = 30.0) -> bool:
        """Drain, then close the listener; True if the drain completed."""
        self.begin_drain()
        completed = await self.drained(timeout=drain_timeout)
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        return completed

    async def serve_forever(self) -> None:
        """Run the bound listener until cancelled."""
        if self._server is None:
            raise RuntimeError("call start() first")
        await self._server.serve_forever()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                try:
                    request = await read_request(
                        reader, max_body=self.config.max_body_bytes)
                except HTTPError as exc:
                    writer.write(self._error_response(
                        exc.status, str(exc), keep_alive=False))
                    await writer.drain()
                    return
                except (asyncio.IncompleteReadError, ConnectionError):
                    return
                if request is None:
                    return
                keep_alive = request.keep_alive
                response = await self._respond(request, keep_alive)
                self._bytes_out.inc(len(response))
                try:
                    writer.write(response)
                    await writer.drain()
                except ConnectionError:
                    return
                if not keep_alive:
                    return
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, RuntimeError):
                pass

    async def _respond(self, request: HTTPRequest, keep_alive: bool) -> bytes:
        tracer = self.tracer
        t0 = tracer.now() if tracer is not None else 0.0
        start = asyncio.get_running_loop().time()
        self._active += 1
        self._active_gauge.set(self._active)
        if self._idle is not None:
            self._idle.clear()
        self._bytes_in.inc(len(request.body))
        status = 500
        try:
            status, body, headers = await self._route(request)
            return render_response(status, body, extra_headers=headers,
                                   keep_alive=keep_alive)
        except HTTPError as exc:
            status = exc.status
            return self._error_response(status, str(exc), keep_alive=keep_alive)
        except Exception as exc:  # noqa: BLE001 - translate, never crash the loop
            status, headers = self._map_error(exc)
            return self._error_response(status, str(exc), headers=headers,
                                        keep_alive=keep_alive)
        finally:
            self._active -= 1
            self._active_gauge.set(self._active)
            if self._active == 0 and self._idle is not None:
                self._idle.set()
            self._latency_hist.observe(
                asyncio.get_running_loop().time() - start)
            self._count_request(request.method, request.path, status)
            if tracer is not None:
                tracer.emit("gateway.request", "gateway", t0, tracer.now(),
                            args={"method": request.method,
                                  "path": request.path, "status": status})

    def _count_request(self, method: str, path: str, status: int) -> None:
        route = path
        if path.startswith("/v1/models/"):
            route = "/v1/models/{name}/infer"
        key = (method, route, status)
        counter = self._requests_total.get(key)
        if counter is None:
            counter = self.registry.counter(
                "gateway_requests_total", "Gateway requests by route and status",
                labels={"method": method, "route": route,
                        "status": str(status)})
            self._requests_total[key] = counter
        counter.inc()

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    async def _route(self, request: HTTPRequest):
        path = request.path
        if path == "/healthz":
            if request.method != "GET":
                raise HTTPError(405, "healthz supports GET only")
            status = 503 if self._draining else 200
            body = json.dumps({
                "status": "draining" if self._draining else "ok",
                "models": sorted(self.models),
            }).encode()
            return status, body, {}
        if path == "/metrics":
            if request.method != "GET":
                raise HTTPError(405, "metrics supports GET only")
            text = self.registry.render_prometheus().encode()
            return 200, text, {"Content-Type": "text/plain; version=0.0.4"}
        if path.startswith("/v1/models/") and path.endswith("/infer"):
            if request.method != "POST":
                raise HTTPError(405, "infer supports POST only")
            name = path[len("/v1/models/"):-len("/infer")]
            return await self._infer(name, request)
        raise HTTPError(404, f"no route for {request.method} {path}")

    async def _infer(self, name: str, request: HTTPRequest):
        if self._draining:
            raise HTTPError(503, "gateway is draining; retry elsewhere")
        model = self.models.get(name)
        if model is None:
            raise HTTPError(
                404, f"unknown model {name!r}; served models: "
                f"{sorted(self.models)}")
        tracer = self.tracer
        t0 = tracer.now() if tracer is not None else 0
        try:
            inputs = codec.decode_request(request.body)
        except codec.CodecError as exc:
            raise HTTPError(400, str(exc)) from None
        if tracer is not None:
            spelling = "list" if inputs.lists else "b64"
            tracer.emit("gateway.decode", "gateway", t0, tracer.now(),
                        args={"bytes": len(request.body),
                              "spelling": spelling, "tensors": len(inputs)})
        tenant = request.header("x-tenant")
        deadline_s: Optional[float] = None
        raw_deadline = request.header("x-deadline-s")
        if raw_deadline is not None:
            try:
                deadline_s = float(raw_deadline)
            except ValueError:
                deadline_s = math.nan
            # NaN would pass admission's `budget <= 0` and never expire
            if not math.isfinite(deadline_s):
                raise HTTPError(400, "X-Deadline-S must be a finite number "
                                f"of seconds, got {raw_deadline!r}")

        # submit() never waits (a cold artifact compiles on its lane).  QoS
        # rejections raise here and surface through _map_error with their
        # Retry-After hints.
        inner = self.engine.submit(model, inputs, tenant=tenant,
                                   deadline_s=deadline_s)
        outputs = await asyncio.wait_for(
            asyncio.wrap_future(inner),
            timeout=self.config.response_timeout_s)
        t0 = tracer.now() if tracer is not None else 0
        # answered in the spelling the request used
        body = codec.encode_outputs(outputs, lists=inputs.lists)
        if tracer is not None:
            tracer.emit("gateway.encode", "gateway", t0, tracer.now(),
                        args={"bytes": len(body), "spelling": spelling,
                              "tensors": len(outputs)})
        return 200, body, {}

    # ------------------------------------------------------------------
    # Error mapping
    # ------------------------------------------------------------------
    @staticmethod
    def _map_error(exc: BaseException):
        """(status, extra headers) for an engine/QoS exception."""
        if isinstance(exc, QoSError):
            headers = {}
            if exc.retry_after_s is not None:
                headers["Retry-After"] = f"{exc.retry_after_s:g}"
            return exc.http_status, headers
        if isinstance(exc, ShapeMismatchError):
            return 400, {}
        if isinstance(exc, asyncio.TimeoutError):
            return 504, {}
        if isinstance(exc, ServingError):
            return 503, {"Retry-After": "1"}
        return 500, {}

    def _error_response(self, status: int, message: str,
                        headers: Optional[Dict[str, str]] = None,
                        keep_alive: bool = True) -> bytes:
        body = json.dumps({"error": message, "status": status}).encode()
        return render_response(status, body, extra_headers=headers,
                               keep_alive=keep_alive)


class GatewayThread:
    """Run a :class:`GatewayServer` on a background thread with its own loop.

    ``start()`` blocks until the listener is bound (so ``port`` is valid
    the moment it returns); ``stop()`` drains, closes and joins.  Used by
    tests, the load benchmark, the demo and the ``ramiel load`` verb —
    anywhere the caller itself is synchronous.
    """

    def __init__(self, server: GatewayServer) -> None:
        self.server = server
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._started = threading.Event()
        self._stop_requested = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self._drained = False

    def start(self, timeout: float = 10.0) -> "GatewayThread":
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="gateway")
        self._thread.start()
        if not self._started.wait(timeout=timeout):
            raise RuntimeError("gateway failed to start in time")
        if self._startup_error is not None:
            raise RuntimeError("gateway failed to start") \
                from self._startup_error
        return self

    def _run(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        try:
            await self.server.start()
        except BaseException as exc:  # noqa: BLE001 - surface to start()
            self._startup_error = exc
            self._started.set()
            return
        self._loop = asyncio.get_running_loop()
        self._started.set()
        stop = asyncio.Event()
        self._stop_event = stop
        await stop.wait()
        self._drained = await self.server.shutdown()

    @property
    def port(self) -> int:
        return self.server.port

    def begin_drain(self) -> None:
        """Thread-safe :meth:`GatewayServer.begin_drain`."""
        if self._loop is not None:
            self._loop.call_soon_threadsafe(self.server.begin_drain)

    def stop(self, timeout: float = 30.0) -> bool:
        """Drain + shutdown; True if every in-flight request completed.

        Idempotent — a second call (e.g. explicit stop inside a ``with``
        block) just reports the first call's outcome.
        """
        if self._thread is None:
            return True
        if self._loop is not None and not self._stop_requested.is_set():
            self._stop_requested.set()
            self._loop.call_soon_threadsafe(self._stop_event.set)
        self._thread.join(timeout=timeout)
        return self._drained

    def __enter__(self) -> "GatewayThread":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
