"""A minimal HTTP/1.1 layer over asyncio streams (stdlib only).

Just enough protocol for the gateway: request-line + header parsing,
``Content-Length`` bodies, keep-alive, and response rendering.  Chunked
request bodies are refused with 501 (clients of an inference API send
sized JSON bodies), and every bound (line length, header count, body
size) is explicit so a misbehaving peer cannot balloon memory.  Framing
is read strictly — ``Content-Length`` is ASCII digits, duplicates must
agree, a header name holds no whitespace — so a proxy in front cannot
disagree with this parser about where a request ends.

The parser is deliberately a standalone function over an
``asyncio.StreamReader`` so unit tests can drive it with in-memory
streams — no sockets required.
"""

from __future__ import annotations

import asyncio
import dataclasses
from typing import Dict, Optional, Tuple
from urllib.parse import unquote

__all__ = [
    "HTTPError",
    "HTTPRequest",
    "read_request",
    "render_response",
]

MAX_REQUEST_LINE = 8 * 1024
MAX_HEADER_BYTES = 32 * 1024
DEFAULT_MAX_BODY = 64 * 1024 * 1024

_REASONS = {
    200: "OK",
    204: "No Content",
    400: "Bad Request",
    403: "Forbidden",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    501: "Not Implemented",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


class HTTPError(Exception):
    """A malformed or unserviceable request; becomes an error response."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


@dataclasses.dataclass
class HTTPRequest:
    """One parsed request."""

    method: str
    path: str
    query: str
    version: str
    #: header names lower-cased; later duplicates win
    headers: Dict[str, str]
    body: bytes

    def header(self, name: str, default: Optional[str] = None) -> Optional[str]:
        """A header value by case-insensitive name."""
        return self.headers.get(name.lower(), default)

    @property
    def keep_alive(self) -> bool:
        """Whether the connection survives this exchange."""
        connection = self.headers.get("connection", "").lower()
        if self.version == "HTTP/1.0":
            return connection == "keep-alive"
        return connection != "close"


async def read_request(reader: asyncio.StreamReader,
                       max_body: int = DEFAULT_MAX_BODY
                       ) -> Optional[HTTPRequest]:
    """Parse one request off the stream; ``None`` on clean EOF.

    Raises :class:`HTTPError` for protocol violations (the caller renders
    the error and closes) and propagates ``asyncio.IncompleteReadError``
    for mid-request disconnects.
    """
    try:
        raw = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None  # clean EOF between requests
        raise
    except asyncio.LimitOverrunError:
        raise HTTPError(413, "request head exceeds the stream limit") from None
    if len(raw) > MAX_REQUEST_LINE + MAX_HEADER_BYTES:
        raise HTTPError(413, "request head too large")

    head = raw[:-4].decode("latin-1")
    lines = head.split("\r\n")
    request_line = lines[0]
    parts = request_line.split(" ")
    if len(parts) != 3:
        raise HTTPError(400, f"malformed request line: {request_line!r}")
    method, target, version = parts
    if version not in ("HTTP/1.1", "HTTP/1.0"):
        raise HTTPError(400, f"unsupported HTTP version {version!r}")

    headers: Dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        # A name with whitespace in it (before the colon, or a folded
        # continuation line) is read differently by different parsers.
        if not sep or name.split() != [name]:
            raise HTTPError(400, f"malformed header line: {line!r}")
        name, value = name.lower(), value.strip()
        if name == "content-length" and headers.get(name, value) != value:
            raise HTTPError(400, "conflicting Content-Length headers")
        headers[name] = value

    path, _, query = target.partition("?")
    path = unquote(path)

    if "chunked" in headers.get("transfer-encoding", "").lower():
        raise HTTPError(501, "chunked request bodies are not supported")
    body = b""
    if "content-length" in headers:
        digits = headers["content-length"]
        # ASCII digits only: int() alone also takes "+3" and "1_0"
        if not (digits.isascii() and digits.isdigit()):
            raise HTTPError(400, "malformed Content-Length")
        try:
            length = int(digits)
        except ValueError:  # beyond int()'s digit limit
            raise HTTPError(400, "malformed Content-Length") from None
        if length > max_body:
            raise HTTPError(
                413, f"request body of {length} bytes exceeds the "
                f"{max_body}-byte limit")
        if length:
            body = await reader.readexactly(length)
    elif method in ("POST", "PUT", "PATCH"):
        raise HTTPError(400, f"{method} request without Content-Length")

    return HTTPRequest(method=method, path=path, query=query,
                       version=version, headers=headers, body=body)


def render_response(status: int, body: bytes = b"",
                    content_type: str = "application/json",
                    extra_headers: Optional[Dict[str, str]] = None,
                    keep_alive: bool = True) -> bytes:
    """Serialize one response (status line, headers, body) to wire bytes."""
    reason = _REASONS.get(status, "Unknown")
    lines = [
        f"HTTP/1.1 {status} {reason}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    for name, value in (extra_headers or {}).items():
        lines.append(f"{name}: {value}")
    head = "\r\n".join(lines).encode("latin-1") + b"\r\n\r\n"
    return head + body


def parse_response(raw: bytes) -> Tuple[int, Dict[str, str], bytes]:
    """Split raw response bytes into (status, headers, body) — client side."""
    head, _, body = raw.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split(" ")[1])
    headers: Dict[str, str] = {}
    for line in lines[1:]:
        name, sep, value = line.partition(":")
        if sep:
            headers[name.strip().lower()] = value.strip()
    return status, headers, body
