"""The HTTP front door: asyncio gateway, tensor codec and load harness.

* :mod:`repro.gateway.server` — :class:`GatewayServer` (asyncio HTTP/1.1
  over one :class:`~repro.serving.engine.InferenceEngine`) and
  :class:`GatewayThread` (background-thread lifecycle for synchronous
  callers).
* :mod:`repro.gateway.codec` — JSON tensor envelope: base64 raw buffers
  (bitwise exact) or number lists (by hand); decoding fails closed.
* :mod:`repro.gateway.http` — the minimal HTTP/1.1 parser/renderer.
* :mod:`repro.gateway.loadgen` — open-loop Poisson multi-tenant load
  generation and per-tenant reports.
"""

from repro.gateway.codec import (
    CodecError,
    decode_outputs,
    decode_request,
    encode_outputs,
    encode_request,
)
from repro.gateway.http import HTTPError, HTTPRequest, read_request, render_response
from repro.gateway.loadgen import LoadReport, LoadSpec, TenantReport, run_load
from repro.gateway.server import GatewayConfig, GatewayServer, GatewayThread

__all__ = [
    "CodecError",
    "GatewayConfig",
    "GatewayServer",
    "GatewayThread",
    "HTTPError",
    "HTTPRequest",
    "LoadReport",
    "LoadSpec",
    "TenantReport",
    "decode_outputs",
    "decode_request",
    "encode_outputs",
    "encode_request",
    "read_request",
    "render_response",
    "run_load",
]
