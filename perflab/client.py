"""perflab's HTTP load client: keep-alive, at most ``nproc`` connections.

``repro.gateway.loadgen.run_load`` opens a connection per request and times
from *send*; it exists to show saturation and backpressure.  This client
measures cost below saturation instead:

* **closed loop** — every connection sends its next request as soon as its
  reply arrives (callers that wait for an answer);
* **open loop** — arrivals follow a seeded Poisson schedule that does not
  depend on replies (independent users).  Each request is timed from when
  it was *due*: a request due while all connections are busy waits, and the
  wait counts.  How late the generator sent (send - due) is reported too.

Single-threaded asyncio; reuses ``repro.gateway.http.parse_response`` for
the response head (the codec is applied by the caller, outside the timing).
"""

from __future__ import annotations

import asyncio
import dataclasses
import itertools
import random
import time
from typing import List, Optional, Sequence, Tuple

from repro.gateway.http import parse_response

REQUEST_TIMEOUT_S = 60.0


@dataclasses.dataclass
class Exchange:
    """One request's life: ``perf_counter`` stamps, status and reply body."""

    body_index: int
    due: float
    sent: float
    done: float
    status: int
    reply: bytes
    error: Optional[str] = None


class Client:
    def __init__(self, host: str, port: int, path: str, connections: int) -> None:
        self.host, self.port, self.path = host, port, path
        self.connections = connections
        self._conns: List[Tuple[asyncio.StreamReader, asyncio.StreamWriter]] = []
        self._head = (f"POST {path} HTTP/1.1\r\nHost: {host}:{port}\r\n"
                      "Content-Type: application/json\r\nConnection: keep-alive\r\n")

    async def open(self) -> None:
        for _ in range(self.connections):
            self._conns.append(await asyncio.open_connection(self.host, self.port))

    async def close(self) -> None:
        for _, writer in self._conns:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, RuntimeError):
                pass
        self._conns.clear()

    async def _exchange(self, conn, body: bytes, body_index: int, due: float) -> Exchange:
        reader, writer = conn
        sent = time.perf_counter()
        try:
            writer.write(self._head.encode("latin-1")
                         + f"Content-Length: {len(body)}\r\n\r\n".encode("latin-1") + body)
            await writer.drain()
            head = await asyncio.wait_for(reader.readuntil(b"\r\n\r\n"),
                                          timeout=REQUEST_TIMEOUT_S)
            status, headers, _ = parse_response(head)
            reply = await reader.readexactly(int(headers.get("content-length", "0")))
            return Exchange(body_index, due, sent, time.perf_counter(), status, reply)
        except (ConnectionError, asyncio.TimeoutError, asyncio.IncompleteReadError,
                asyncio.LimitOverrunError, OSError, ValueError) as exc:
            return Exchange(body_index, due, sent, time.perf_counter(), 0, b"", repr(exc))

    async def closed_loop(self, bodies: Sequence[bytes], seconds: float,
                          connections: Optional[int] = None) -> List[Exchange]:
        """Each connection sends on reply until ``seconds`` have passed."""
        deadline = time.perf_counter() + seconds
        counter = itertools.count()

        async def worker(conn) -> List[Exchange]:
            out = []
            while time.perf_counter() < deadline:
                index = next(counter) % len(bodies)
                out.append(await self._exchange(conn, bodies[index], index, time.perf_counter()))
                if out[-1].error:
                    break
            return out

        conns = self._conns[:connections or len(self._conns)]
        results = await asyncio.gather(*(worker(c) for c in conns))
        return [x for chunk in results for x in chunk]

    async def open_loop(self, bodies: Sequence[bytes], rate: float, seconds: float,
                        rng: random.Random) -> List[Exchange]:
        """Seeded Poisson arrivals at ``rate`` per second for ``seconds``."""
        start = time.perf_counter()
        dues, t = [], 0.0
        while True:
            t += rng.expovariate(rate)
            if t >= seconds:
                break
            dues.append(start + t)
        arrivals = iter(enumerate(dues))

        async def worker(conn) -> List[Exchange]:
            out = []
            for number, due in arrivals:  # the next arrival nobody has taken yet
                delay = due - time.perf_counter()
                if delay > 0:
                    await asyncio.sleep(delay)
                index = number % len(bodies)
                out.append(await self._exchange(conn, bodies[index], index, due))
                if out[-1].error:
                    break
            return out

        results = await asyncio.gather(*(worker(c) for c in self._conns))
        return [x for chunk in results for x in chunk]
