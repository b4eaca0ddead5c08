"""Tests for the HTTP gateway: codec, HTTP/1.1 layer, server, lifecycle.

The codec tests pin the bitwise-exactness contract the acceptance bar
depends on and, with the property tests beside them, the fail-closed one:
whatever bytes arrive, the codec answers ``CodecError`` or the right
tensor and the HTTP parser ``HTTPError`` / ``IncompleteReadError`` / a
request, never another exception.  The HTTP tests drive the parser with
in-memory streams (no sockets); the server tests boot a real
:class:`GatewayThread` over a real engine serving the small conftest
models and exercise routing, error mapping (400/403/404/405/429/503/504 +
Retry-After) and the graceful drain contract: in-flight requests complete
while new ones get 503.
"""

from __future__ import annotations

import asyncio
import base64
import json
import threading
import time
from concurrent.futures import Future

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings

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
from repro.observability import trace as trace_module
from repro.runtime.channels import MAX_NDIM
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


    def test_repo_writes_b64_and_decodes_to_a_read_only_view(self, rng):
        x = rng.standard_normal((1, 3, 4, 4)).astype(np.float32)
        body = codec.encode_request({"x": x})
        wire = json.loads(body)["inputs"]["x"]
        assert set(wire) == {"b64", "shape", "dtype"}
        assert base64.b64decode(wire["b64"]) == x.tobytes()
        decoded = codec.decode_request(body)
        assert decoded.lists is False
        assert decoded["x"].flags.writeable is False
        assert decoded["x"].tobytes() == x.tobytes()
        assert repr(decoded["x"].dtype) == "dtype('float32')"  # not '<f4'
        with pytest.raises(ValueError):
            decoded["x"][0, 0, 0, 0] = 1.0

    @pytest.mark.parametrize("dtype", ["float16", "float32", "float64",
                                       "int8", "int64", "uint64", "bool"])
    def test_list_spelling_is_exact_for_finite_values(self, dtype, rng):
        if dtype.startswith("float"):
            array = rng.standard_normal((2, 5)).astype(dtype)
            array[0, :3] = [np.finfo(dtype).max, np.finfo(dtype).tiny, -0.0]
        elif dtype == "bool":
            array = rng.integers(0, 2, size=(2, 5)).astype(bool)
        else:
            info = np.iinfo(dtype)
            array = np.array([[info.min, info.max, 0, 1, 2]] * 2, dtype=dtype)
        body = codec.encode_request({"x": array}, lists=True)
        assert "data" in json.loads(body)["inputs"]["x"]
        decoded = codec.decode_request(body)
        assert decoded.lists is True
        assert decoded["x"].dtype == array.dtype
        assert decoded["x"].tobytes() == array.tobytes()
        assert decoded["x"].flags.writeable is False

    def test_spelling_is_lists_only_when_every_tensor_is(self):
        as_list = codec.encode_array(np.zeros(2, np.float32), lists=True)
        as_b64 = codec.encode_array(np.zeros(2, np.float32))
        mixed = json.dumps({"inputs": {"a": as_list, "b": as_b64}}).encode()
        assert codec.decode_request(mixed).lists is False
        bare = b'{"inputs": {"a": [[1.0, 2.0]]}}'
        assert codec.decode_request(bare).lists is True

    def test_b64_keeps_nan_payloads_signed_zero_and_subnormals(self):
        bits = np.array([0x7FC00001, 0xFFC12345, 0x7F800001,  # NaN payloads
                         0x80000000, 0x00000000,              # -0.0, +0.0
                         0x00000001, 0x807FFFFF,              # subnormals
                         0x7F800000, 0xFF800000], dtype=np.uint32)  # +-inf
        array = bits.view(np.float32)
        decoded = codec.decode_request(codec.encode_request({"x": array}))
        assert decoded["x"].tobytes() == array.tobytes()

    def test_bool_bytes_other_than_0_and_1_decode_to_valid_bools(self):
        obj = {"b64": base64.b64encode(bytes([0, 1, 2, 255])).decode(),
               "shape": [4], "dtype": "bool"}
        decoded = codec.decode_array(obj)
        assert decoded.dtype == np.bool_
        assert decoded.view(np.uint8).tolist() == [0, 1, 1, 1]

    def test_dtypes_without_a_raw_form_keep_the_list_spelling(self):
        assert "data" in codec.encode_array(np.array([1 + 2j]))

    def test_decode_outputs_refuses_a_non_object(self):
        # an AttributeError out of `.items()` before the shared envelope check
        with pytest.raises(codec.CodecError):
            codec.decode_outputs(b'{"outputs": [1, 2]}')
        assert codec.decode_outputs(b'{"outputs": {}}') == {}


# ---------------------------------------------------------------------------
# Hostile bodies: each is a CodecError at the codec and a 400 at the gateway
# ---------------------------------------------------------------------------
def _body(obj: dict) -> bytes:
    return json.dumps({"inputs": {"x": obj}}).encode()


def _tensor(**fields) -> bytes:
    """A valid list-spelling request with some fields replaced."""
    return _body({"data": [1.0, 2.0], "shape": [2], "dtype": "float32",
                  **fields})


def _b64_tensor(**fields) -> bytes:
    """A valid b64-spelling request with some fields replaced / added."""
    raw = np.arange(2, dtype=np.float32).tobytes()
    return _body({"b64": base64.b64encode(raw).decode(), "shape": [2],
                  "dtype": "float32", **fields})


_B64_OF_8_BYTES = base64.b64encode(bytes(8)).decode()

#: id -> body.  At 08d7167 the shape-* (string, float, bool), huge-integer-*
#: and nesting-* cases answered 500 (TypeError / OverflowError /
#: RecursionError escaping ``decode_request``) and the dtype-object /
#: -unicode / -complex / -structured, *-coerced-*, finite-double-*, data-*
#: and shape-beyond-* cases were accepted and handed to the engine; the
#: rest guard the b64 spelling.
HOSTILE_BODIES = {
    "shape-is-a-string": _tensor(shape="ab"),
    "shape-holds-a-float": _tensor(shape=[2.0]),
    "huge-integer-into-int64": _tensor(data=[10 ** 400, 1], dtype="int64"),
    "huge-integer-into-float32": _tensor(data=[10 ** 400, 1]),
    "finite-double-beyond-float32": _tensor(data=[1e300, 1.0]),
    "nesting-100000-deep": b'{"inputs": {"x": ' + b"[" * 100_000 + b"}}",
    "dtype-object": _tensor(dtype="object"),
    "dtype-unicode": _tensor(data=["ab", "cd"], dtype="U4"),
    "dtype-datetime": _tensor(dtype="M8[s]"),
    "dtype-complex": _tensor(dtype="complex64"),
    "dtype-structured": _tensor(dtype="i4,i4"),
    "strings-coerced-to-bool": _tensor(data=["", "x"], dtype="bool"),
    "strings-coerced-to-float": _tensor(data=["1.5", "2.5"]),
    "null-coerced-to-nan": _tensor(data=[None, 1.0]),
    "shape-holds-a-bool": _tensor(shape=[True, 2]),
    "shape-beyond-max-ndim": _tensor(shape=[1] * (MAX_NDIM + 1) + [2]),
    "data-nested-beyond-max-ndim": _tensor(
        data=json.loads("[" * (MAX_NDIM + 1) + "1.0" + "]" * (MAX_NDIM + 1)),
        shape=[1]),
    "data-is-a-number": _tensor(data=5, shape=[]),
    "dtype-byte-order-prefix": _b64_tensor(dtype=">f4"),
    "dtype-short-code": _b64_tensor(dtype="f4"),
    "dtype-is-a-list": _b64_tensor(dtype=["float32"]),
    "b64-and-data-together": _b64_tensor(data=[0.0, 1.0]),
    "neither-b64-nor-data": _body({"shape": [2], "dtype": "float32"}),
    "b64-shape-wildcard": _b64_tensor(shape=[-1]),
    "b64-one-element-short": _b64_tensor(shape=[3]),
    "b64-one-element-long": _b64_tensor(shape=[1]),
    "b64-bytes-not-a-multiple-of-itemsize": _b64_tensor(
        b64=base64.b64encode(bytes(7)).decode()),
    "b64-non-alphabet-character": _b64_tensor(
        b64=_B64_OF_8_BYTES.replace("A", "-", 1)),
    "b64-url-safe-alphabet": _b64_tensor(
        b64=base64.urlsafe_b64encode(b"\xff" * 8).decode()),
    "b64-embedded-newline": _b64_tensor(
        b64=_B64_OF_8_BYTES[:4] + "\n" + _B64_OF_8_BYTES[4:]),
    "b64-unpadded": _b64_tensor(b64=_B64_OF_8_BYTES.rstrip("=")),
    "b64-data-after-padding": _b64_tensor(b64=_B64_OF_8_BYTES + "AAAA"),
    "b64-is-a-list": _b64_tensor(b64=[0, 0]),
    "b64-huge-shape-product": _b64_tensor(shape=[2 ** 62, 2 ** 62, 4]),
    "inputs-is-a-list": b'{"inputs": [1, 2]}',
    "tensor-is-a-string": b'{"inputs": {"x": "zeros"}}',
    "body-is-not-utf8": b'{"inputs": \xff\xfe}',
}


@pytest.mark.parametrize("case", sorted(HOSTILE_BODIES))
def test_hostile_body_is_a_codec_error(case):
    with pytest.raises(codec.CodecError):
        codec.decode_request(HOSTILE_BODIES[case])


# ---------------------------------------------------------------------------
# Wire properties (hypothesis, derandomized: tier-1 must be deterministic)
# ---------------------------------------------------------------------------
WIRE_DTYPES = sorted({np.dtype(code).name for code in
                      "?" + np.typecodes["AllInteger"] + np.typecodes["Float"]})
SHAPES = [(), (0,), (3, 0, 2), (1,), (5,), (2, 3), (1, 2, 3, 2)]
LAYOUTS = ["C", "fortran", "sliced", "byte-swapped"]


def _array_from_bytes(raw: bytes, dtype: str, shape, layout: str) -> np.ndarray:
    """An array of ``shape`` whose elements are the bit patterns in ``raw``
    (so float draws include NaN payloads, -0.0, subnormals and infinities),
    stored the way ``layout`` says."""
    dt = np.dtype(dtype)
    count = int(np.prod(shape, dtype=np.int64))
    flat = np.frombuffer(raw[:count * dt.itemsize].ljust(count * dt.itemsize,
                                                         b"\x5a"), dtype=np.uint8)
    if dt.kind == "b":
        flat = flat & 1  # only 0 / 1 are valid numpy bools
    array = flat.view(dt).reshape(shape).copy()
    if layout == "fortran":
        return np.asfortranarray(array)
    if layout == "sliced" and shape:  # every other element of a wider buffer
        wide = np.zeros(tuple(2 * n for n in shape), dtype=dt)
        view = wide[tuple(slice(None, None, 2) for _ in shape)]
        view[...] = array
        return view
    if layout == "byte-swapped":
        return array.astype(dt.newbyteorder(">" if dt.isnative else "="))
    return array


def _native_bytes(array: np.ndarray) -> bytes:
    return np.ascontiguousarray(
        array, dtype=array.dtype.newbyteorder("=")).tobytes()


def _expected_by_hand(body: bytes):
    """What a body *says*, decoded by the shortest independent route; only
    called on bodies ``decode_request`` accepted."""
    expected = {}
    for name, obj in json.loads(body)["inputs"].items():
        if isinstance(obj, list):
            expected[name] = np.asarray(obj, dtype=np.float32)
            continue
        dtype = np.dtype(obj.get("dtype", "float32"))
        if "b64" in obj:
            flat = np.frombuffer(base64.b64decode(obj["b64"]), dtype=np.uint8)
            flat = (flat != 0) if dtype.kind == "b" else flat.view(dtype)
        else:
            flat = np.asarray(obj["data"], dtype=dtype)
        expected[name] = flat.reshape(obj["shape"])
    return expected


def assert_codec_error_or_correct(body: bytes) -> None:
    """The codec's whole contract on arbitrary bytes."""
    try:
        decoded = codec.decode_request(body)
    except codec.CodecError:
        return
    expected = _expected_by_hand(body)
    assert decoded.keys() == expected.keys()
    for name, want in expected.items():
        got = decoded[name]
        assert got.dtype == want.dtype and got.dtype.kind in "biuf"
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert got.flags.writeable is False


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8)

#: values that nearly fit a tensor field, so the accepted side of the
#: contract is exercised too: shapes, dtype names, six numbers for ``data``
near_misses = (
    st.lists(st.integers(-1, 6), max_size=3)
    | st.sampled_from(WIRE_DTYPES + ["f4", "<f4", "object", "float"])
    | st.lists(st.floats() | st.integers() | st.booleans(),
               min_size=6, max_size=6))

SMALL = np.array([[1.5, -0.0, np.nan], [np.inf, 1e-45, 3.0]], dtype=np.float32)
SMALL_BODY = codec.encode_request({"x": SMALL})


class TestWireProperties:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(dtype=st.sampled_from(WIRE_DTYPES), shape=st.sampled_from(SHAPES),
           layout=st.sampled_from(LAYOUTS), raw=st.binary(max_size=192))
    def test_b64_round_trip_is_bytes_in_bytes_out(self, dtype, shape, layout, raw):
        array = _array_from_bytes(raw, dtype, shape, layout)
        body = codec.encode_request({"x": array})
        for decoded in (codec.decode_request(body)["x"],
                        codec.decode_outputs(codec.encode_outputs({"x": array}))["x"]):
            assert decoded.dtype == np.dtype(dtype)
            assert decoded.shape == array.shape
            assert decoded.tobytes() == _native_bytes(array)
        assert_codec_error_or_correct(body)

    def test_every_truncation_of_a_valid_body_is_a_codec_error(self):
        for size in range(len(SMALL_BODY)):
            with pytest.raises(codec.CodecError):
                codec.decode_request(SMALL_BODY[:size])

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(offset=st.integers(0, len(SMALL_BODY) - 1), byte=st.integers(0, 255))
    def test_one_changed_byte_is_refused_or_decoded_as_written(self, offset, byte):
        body = bytearray(SMALL_BODY)
        body[offset] = byte
        assert_codec_error_or_correct(bytes(body))

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(field=st.sampled_from(["shape", "dtype", "b64", "data"]),
           value=json_values | near_misses,
           spelling=st.sampled_from(["b64", "data"]))
    @example(field="shape", value="ab", spelling="data")
    @example(field="shape", value=[2.0], spelling="data")
    @example(field="dtype", value="object", spelling="data")
    @example(field="dtype", value=["float32"], spelling="b64")
    @example(field="data", value=["1.5"], spelling="data")
    @example(field="data", value=[10 ** 400], spelling="data")
    @example(field="b64", value=5, spelling="b64")
    def test_arbitrary_json_in_a_tensor_field(self, field, value, spelling):
        obj = codec.encode_array(SMALL, lists=(spelling == "data"))
        obj[field] = value
        assert_codec_error_or_correct(json.dumps({"inputs": {"x": obj}}).encode())

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(payload=json_values)
    def test_arbitrary_json_as_the_whole_body(self, payload):
        assert_codec_error_or_correct(json.dumps(payload).encode())
        assert_codec_error_or_correct(json.dumps({"inputs": payload}).encode())
        assert_codec_error_or_correct(
            json.dumps({"inputs": {"x": payload}}).encode())


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

    @pytest.mark.parametrize("value", [
        "1_0", "+3", "-3", "3.0", "0x3", "3 3", "3,3", "\xb3", "", "9" * 5000])
    def test_content_length_is_ascii_digits_only(self, value):
        # int() alone reads "1_0" as ten bytes and "+3" as three
        raw = f"POST /p HTTP/1.1\r\nContent-Length: {value}\r\n\r\n"
        with pytest.raises(HTTPError) as excinfo:
            parse(raw.encode("latin-1") + b"0123456789")
        assert excinfo.value.status == 400

    def test_conflicting_content_lengths_rejected(self):
        with pytest.raises(HTTPError) as excinfo:
            parse(b"POST /p HTTP/1.1\r\nContent-Length: 2\r\n"
                  b"Content-Length: 4\r\n\r\nabcd")
        assert excinfo.value.status == 400
        agreeing = parse(b"POST /p HTTP/1.1\r\nContent-Length: 4\r\n"
                         b"content-length: 4\r\n\r\nabcd")
        assert agreeing.body == b"abcd"

    @pytest.mark.parametrize("line", [
        b"Content-Length : 4", b" Content-Length: 4", b"\tX-Folded: 1",
        b"Content Length: 4", b": empty-name", b"no-colon"])
    def test_header_name_with_whitespace_rejected(self, line):
        with pytest.raises(HTTPError) as excinfo:
            parse(b"POST /p HTTP/1.1\r\n" + line
                  + b"\r\nContent-Length: 4\r\n\r\nabcd")
        assert excinfo.value.status == 400

    def test_render_and_parse_response(self):
        raw = render_response(429, b'{"e": 1}',
                              extra_headers={"Retry-After": "2"})
        status, headers, body = parse_response(raw)
        assert status == 429
        assert headers["retry-after"] == "2"
        assert headers["content-length"] == "8"
        assert body == b'{"e": 1}'


VALID_REQUEST = (b"POST /v1/models/m/infer HTTP/1.1\r\nHost: x\r\n"
                 b"X-Tenant: gold\r\nContent-Length: 11\r\n\r\nhello world")


def assert_parses_or_fails_closed(raw: bytes):
    """read_request's whole contract on arbitrary bytes: a request, a clean
    ``None``, ``HTTPError`` or ``IncompleteReadError`` -- nothing else."""
    try:
        return parse(raw)
    except (HTTPError, asyncio.IncompleteReadError):
        return None


class TestHTTPProperties:
    def test_every_prefix_of_a_valid_request(self):
        for size in range(len(VALID_REQUEST)):
            assert assert_parses_or_fails_closed(VALID_REQUEST[:size]) is None
        assert assert_parses_or_fails_closed(VALID_REQUEST).body == b"hello world"

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(line=st.binary(max_size=40)
           | st.builds(lambda name, value: name + b":" + value,
                       st.sampled_from([b"Content-Length", b"content-length ",
                                        b"Transfer-Encoding", b"Connection"]),
                       st.binary(max_size=12)))
    @example(line=b"Content-Length: 1_1")
    @example(line=b"Content-Length: +11")
    @example(line=b"Content-Length: \xb2")
    @example(line=b"Content-Length: 12")
    def test_arbitrary_header_line(self, line):
        head, _, body = VALID_REQUEST.partition(b"\r\n\r\n")
        request = assert_parses_or_fails_closed(
            head + b"\r\n" + line + b"\r\n\r\n" + body)
        # whatever the extra line said, an accepted request is framed by the
        # one Content-Length every parser agrees on
        one_line = line and b"\r" not in line and b"\n" not in line
        if request is not None and one_line:
            assert request.body == b"hello world"

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(raw=st.binary(max_size=120))
    def test_arbitrary_bytes(self, raw):
        assert_parses_or_fails_closed(raw)
        assert_parses_or_fails_closed(raw + b"\r\n\r\n")


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

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_deadline_400(self, gateway_stack, value):
        # nan passed admission's `budget <= 0` and never expired at pop
        _, _, thread, model = gateway_stack
        status, _, body = call(thread.port, "POST", "/v1/models/diamond/infer",
                               body=codec.encode_request(example_inputs(model)),
                               headers={"X-Deadline-S": value})
        assert status == 400, body

    @pytest.mark.parametrize("case", sorted(HOSTILE_BODIES))
    def test_hostile_body_400(self, gateway_stack, case):
        _, _, thread, _ = gateway_stack
        status, _, body = call(thread.port, "POST", "/v1/models/diamond/infer",
                               body=HOSTILE_BODIES[case])
        assert status == 400, body
        assert json.loads(body)["status"] == 400

    def test_conflicting_content_lengths_400(self, gateway_stack):
        _, _, thread, _ = gateway_stack
        status, _, _ = call(thread.port, "POST", "/v1/models/diamond/infer",
                            body=b"{}", headers={"Content-Length": "1_0"})
        assert status == 400

    def test_answer_is_spelled_like_the_request(self, gateway_stack):
        engine, _, thread, model = gateway_stack
        feed = example_inputs(model)
        reference = engine.submit(model, feed).result(timeout=60)
        for lists, key in ((True, "data"), (False, "b64")):
            status, _, body = call(
                thread.port, "POST", "/v1/models/diamond/infer",
                body=codec.encode_request(feed, lists=lists))
            assert status == 200, body
            for tensor in json.loads(body)["outputs"].values():
                assert key in tensor and set(tensor) == {key, "shape", "dtype"}
            outputs = codec.decode_outputs(body)
            assert outputs.lists is lists
            for name, ref in reference.items():
                assert outputs[name].tobytes() == np.asarray(ref).tobytes()

    def test_engine_serves_read_only_inputs(self, gateway_stack):
        engine, _, _, model = gateway_stack
        feed = example_inputs(model)
        decoded = codec.decode_request(codec.encode_request(feed))
        assert all(a.flags.writeable is False for a in decoded.values())
        reference = engine.submit(model, feed).result(timeout=60)
        # alone, the decoded arrays reach the session as they are
        outputs = engine.submit(model, decoded).result(timeout=60)
        for name, ref in reference.items():
            assert np.asarray(outputs[name]).tobytes() == np.asarray(ref).tobytes()
        # in a burst they are stacked (a fused batch may differ in the last ulp)
        for future in [engine.submit(model, decoded) for _ in range(4)]:
            outputs = future.result(timeout=60)
            for name, ref in reference.items():
                np.testing.assert_allclose(outputs[name], ref, rtol=1e-5)

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
        for name in ("gateway.request", "gateway.decode", "gateway.encode",
                     "qos.admit", "qos.queue", "batch.execute", "batch.respond"):
            assert name in cats, name
        assert "request.queue" not in cats  # one queue, one queueing span

    def test_codec_spans_nest_under_the_request_span(self):
        model = build_chain_model()
        tracer = trace_module.Tracer()
        engine = InferenceEngine(EngineConfig(max_batch_size=2), tracer=tracer)
        body = codec.encode_request(example_inputs(model), lists=True)
        try:
            with GatewayThread(GatewayServer(engine, {"chain": model})) as thread:
                assert call(thread.port, "POST", "/v1/models/chain/infer",
                            body=body)[0] == 200
                assert call(thread.port, "POST", "/v1/models/chain/infer",
                            body=b"not json")[0] == 400
        finally:
            engine.shutdown()
        spans = {}
        for event in tracer.events():
            spans.setdefault(event.name, []).append(event)
        ok, refused = spans["gateway.request"]
        assert (ok.args["status"], refused.args["status"]) == (200, 400)
        (decode,), (encode,) = spans["gateway.decode"], spans["gateway.encode"]
        assert decode.tid == encode.tid == ok.tid
        assert ok.start_ns <= decode.start_ns <= decode.end_ns <= encode.start_ns
        assert encode.end_ns <= ok.end_ns
        assert decode.args == {"bytes": len(body), "spelling": "list",
                               "tensors": 1}
        assert encode.args["spelling"] == "list" and encode.args["tensors"] == 1
        assert encode.args["bytes"] > 0

    def test_untraced_path_creates_no_span_objects(self, gateway_stack,
                                                   monkeypatch):
        engine, server, thread, model = gateway_stack
        assert server.tracer is None
        created = []

        class Counted(trace_module.TraceEvent):
            def __init__(self, *args, **kwargs):
                created.append(args)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(trace_module, "TraceEvent", Counted)
        status, _, _ = call(thread.port, "POST", "/v1/models/diamond/infer",
                            body=codec.encode_request(example_inputs(model)))
        assert status == 200
        assert created == []


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
