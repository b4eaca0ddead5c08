"""Open-loop, multi-tenant load generation against a running gateway.

A *closed-loop* driver (N threads, each submit-and-wait) self-throttles:
when the server slows down, so does the offered load, which hides every
saturation behaviour worth measuring.  This harness is **open loop** —
each tenant's arrivals follow a Poisson process (exponential
inter-arrival times at the configured rate) *independent of completions*,
so offered load above capacity actually lands on the server and the
backpressure contract (429/503 + ``Retry-After``, bounded p99 for
admitted work, weighted fairness) is observable instead of asserted.

Everything is stdlib ``asyncio``: each in-flight request is a task with
its own connection (an open-loop driver cannot share a small pool —
waiting for a free connection would close the loop again).  Latency is
timed from the moment a request was *due*, not from when it was sent, so a
stall in the generator or the server is charged to the requests it
delayed; how late the generator ran (send − due) is reported beside it.
Results aggregate per tenant into :class:`TenantReport`.
"""

from __future__ import annotations

import asyncio
import dataclasses
import random
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.gateway.http import parse_response

__all__ = [
    "LoadReport",
    "LoadSpec",
    "TenantReport",
    "http_request",
    "run_load",
]


@dataclasses.dataclass(frozen=True)
class LoadSpec:
    """One tenant's offered load."""

    tenant: str
    model: str
    #: request-body bytes fired on every arrival (pre-encoded once)
    body: bytes
    #: mean arrival rate, requests/second (Poisson process)
    rate_rps: float
    #: X-Deadline-S header attached to every request (None = none)
    deadline_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.rate_rps <= 0:
            raise ValueError("rate_rps must be > 0")


@dataclasses.dataclass
class TenantReport:
    """Aggregated outcomes of one tenant's offered load."""

    tenant: str
    sent: int = 0
    ok: int = 0
    rejected_429: int = 0
    rejected_503: int = 0
    expired_504: int = 0
    other_status: int = 0
    transport_errors: int = 0
    retry_after_seen: int = 0
    #: due time -> reply, of admitted (200) requests
    latencies_s: List[float] = dataclasses.field(default_factory=list)
    #: due time -> send, of every request fired (how late the generator ran)
    lateness_s: List[float] = dataclasses.field(default_factory=list)

    @property
    def rejected(self) -> int:
        """Backpressure rejections (the 429/503 family)."""
        return self.rejected_429 + self.rejected_503

    @property
    def dropped(self) -> int:
        """Requests that vanished without an HTTP answer — must be zero."""
        return self.transport_errors

    def percentile_ms(self, q: float) -> float:
        """Latency percentile of *admitted* (200) requests, milliseconds."""
        return _percentile_ms(self.latencies_s, q)

    def summary(self, duration_s: float) -> Dict[str, float]:
        """Flat dict for printing/asserting."""
        return {
            "sent": self.sent,
            "ok": self.ok,
            "rejected_429": self.rejected_429,
            "rejected_503": self.rejected_503,
            "expired_504": self.expired_504,
            "other_status": self.other_status,
            "transport_errors": self.transport_errors,
            "goodput_rps": round(self.ok / duration_s, 2) if duration_s else 0.0,
            "p50_ms": round(self.percentile_ms(50), 2),
            "p99_ms": round(self.percentile_ms(99), 2),
            "late_p95_ms": round(_percentile_ms(self.lateness_s, 95), 2),
        }


def _percentile_ms(samples_s: List[float], q: float) -> float:
    if not samples_s:
        return 0.0
    return float(np.percentile(np.asarray(samples_s), q) * 1e3)


@dataclasses.dataclass
class LoadReport:
    """The whole run: per-tenant reports plus the offered-load window."""

    duration_s: float
    tenants: Dict[str, TenantReport]

    @property
    def total_ok(self) -> int:
        return sum(t.ok for t in self.tenants.values())

    @property
    def total_rejected(self) -> int:
        return sum(t.rejected for t in self.tenants.values())

    @property
    def total_dropped(self) -> int:
        return sum(t.dropped for t in self.tenants.values())

    def render(self) -> str:
        """A per-tenant table for humans."""
        lines = [f"{'tenant':<12} {'sent':>6} {'ok':>6} {'429':>5} {'503':>5} "
                 f"{'504':>5} {'err':>4} {'goodput':>8} {'p50ms':>8} {'p99ms':>8} "
                 f"{'late95ms':>9}"]
        for name in sorted(self.tenants):
            s = self.tenants[name].summary(self.duration_s)
            lines.append(
                f"{name:<12} {s['sent']:>6} {s['ok']:>6} "
                f"{s['rejected_429']:>5} {s['rejected_503']:>5} "
                f"{s['expired_504']:>5} {s['transport_errors']:>4} "
                f"{s['goodput_rps']:>8} {s['p50_ms']:>8} {s['p99_ms']:>8} "
                f"{s['late_p95_ms']:>9}")
        return "\n".join(lines)


async def http_request(host: str, port: int, method: str, path: str,
                       body: bytes = b"",
                       headers: Optional[Dict[str, str]] = None,
                       timeout: float = 60.0):
    """One HTTP exchange on a fresh connection; (status, headers, body)."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        lines = [f"{method} {path} HTTP/1.1",
                 f"Host: {host}:{port}",
                 f"Content-Length: {len(body)}",
                 "Connection: close"]
        for name, value in (headers or {}).items():
            lines.append(f"{name}: {value}")
        writer.write("\r\n".join(lines).encode() + b"\r\n\r\n" + body)
        await writer.drain()
        raw = await asyncio.wait_for(reader.read(), timeout=timeout)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, RuntimeError):
            pass
    return parse_response(raw)


async def _fire_one(host: str, port: int, spec: LoadSpec,
                    report: TenantReport, timeout: float, due: float) -> None:
    """One request, timed from ``due`` (its arrival time on ``loop.time()``)."""
    loop = asyncio.get_running_loop()
    headers = {"X-Tenant": spec.tenant}
    if spec.deadline_s is not None:
        headers["X-Deadline-S"] = f"{spec.deadline_s:g}"
    report.lateness_s.append(loop.time() - due)
    try:
        status, resp_headers, _ = await http_request(
            host, port, "POST", f"/v1/models/{spec.model}/infer",
            body=spec.body, headers=headers, timeout=timeout)
    except (ConnectionError, asyncio.TimeoutError, asyncio.IncompleteReadError,
            OSError):
        report.transport_errors += 1
        return
    elapsed = loop.time() - due
    if status == 200:
        report.ok += 1
        report.latencies_s.append(elapsed)
    elif status == 429:
        report.rejected_429 += 1
    elif status == 503:
        report.rejected_503 += 1
    elif status == 504:
        report.expired_504 += 1
    else:
        report.other_status += 1
    if "retry-after" in resp_headers:
        report.retry_after_seen += 1


async def _tenant_loop(host: str, port: int, spec: LoadSpec,
                       report: TenantReport, duration_s: float,
                       rng: random.Random, timeout: float,
                       inflight: List["asyncio.Task"]) -> None:
    loop = asyncio.get_running_loop()
    start = loop.time()
    next_arrival = start
    while True:
        next_arrival += rng.expovariate(spec.rate_rps)
        if next_arrival - start >= duration_s:
            return
        delay = next_arrival - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        # Open loop: fire-and-track, never wait for the answer here.
        report.sent += 1
        inflight.append(asyncio.ensure_future(
            _fire_one(host, port, spec, report, timeout, next_arrival)))


async def run_load(host: str, port: int, specs: Sequence[LoadSpec],
                   duration_s: float, seed: int = 0,
                   request_timeout_s: float = 60.0) -> LoadReport:
    """Drive every tenant's Poisson arrivals for ``duration_s`` seconds.

    Returns once every fired request has an outcome — arrivals stop at
    the window's end but in-flight requests are awaited, so ``dropped``
    counts genuine losses, not harness impatience.
    """
    reports = {spec.tenant: TenantReport(tenant=spec.tenant)
               for spec in specs}
    if len(reports) != len(specs):
        raise ValueError("one LoadSpec per tenant, duplicate tenant names")
    inflight: List[asyncio.Task] = []
    generators = [
        _tenant_loop(host, port, spec, reports[spec.tenant], duration_s,
                     random.Random(seed + i), request_timeout_s, inflight)
        for i, spec in enumerate(specs)
    ]
    loop = asyncio.get_running_loop()
    start = loop.time()
    await asyncio.gather(*generators)
    if inflight:
        await asyncio.gather(*inflight, return_exceptions=False)
    elapsed = loop.time() - start
    return LoadReport(duration_s=elapsed, tenants=reports)
