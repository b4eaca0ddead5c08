"""JSON tensor codec shared by the gateway server and its clients.

One envelope, two *spellings* of a tensor's payload::

    {"b64": "<base64>", "shape": [1, 3, 64, 64], "dtype": "float32"}
    {"data": [0.25, -1.5, ...], "shape": [1, 3, 64, 64], "dtype": "float32"}

``b64`` is what this repo writes (:func:`encode_request`,
:func:`encode_outputs`): the standard-alphabet base64 of the array's
C-order, little-endian buffer.  Decoding is ``json.loads`` →
``base64.b64decode(validate=True)`` → ``np.frombuffer`` — no Python object
per element on either side, and **bitwise exact by construction** for every
bit pattern: NaN payloads, ``-0.0``, subnormals and infinities are bytes
like any other.  ``bool`` payloads are read as ``uint8 != 0`` so no byte
can become an invalid numpy bool.

``data`` (a flat or nested list of JSON numbers / booleans; a bare nested
list in place of the object means float32) stays accepted so a request
can be typed into ``curl``, and a request whose tensors all came as lists
is answered in lists.  It is exact for *finite* values — every float32 is
a double, ``repr`` of a double round-trips, and the cast back is exact;
integers are exact in JSON — but it does not promise NaN payload bits.

Request and response bodies::

    {"inputs":  {"input":  <tensor>, ...}}
    {"outputs": {"output": <tensor>, ...}}

Bodies come from the network, so decoding **fails closed**: whatever is
wrong with one, the outcome is :class:`CodecError` (the server's 400),
never another exception and never a tensor that differs from what was
sent.  Refused, for both spellings: a ``dtype`` that is not the native
name of a bool / integer / float numpy dtype (``"float32"``, ``"int64"``,
``"bool"`` — so no byte-order prefix, ``object``, strings, datetimes,
complex, structured); a ``shape`` that is not a list of at most
``MAX_NDIM`` non-negative ints (the list spelling alone keeps ``-1``); an
object carrying both ``b64`` and ``data``.  ``b64`` must be a string of
the standard alphabet with correct padding whose decoded length is exactly
``prod(shape) * itemsize``; ``data`` elements must be JSON numbers or
booleans (strings and ``null`` are not coerced) that fit the dtype.
Decoded arrays are read-only — the ``b64`` ones are views of the decoded
bytes — and nothing on the request path writes into them.
"""

from __future__ import annotations

import base64
import json
import math
from typing import Any, Dict, Mapping

import numpy as np

from repro.runtime.channels import MAX_NDIM

__all__ = [
    "CodecError",
    "Tensors",
    "decode_array",
    "decode_outputs",
    "decode_request",
    "encode_array",
    "encode_outputs",
    "encode_request",
]

#: wire name -> little-endian dtype, for every bool / integer / float dtype
#: (through ``.str`` so that on a little-endian host it is *the* native
#: dtype, ``float32`` and not ``<f4``).  A lookup, so a peer's string is
#: never handed to ``np.dtype`` to parse.
_WIRE_DTYPES = {
    np.dtype(code).name: np.dtype(np.dtype(code).newbyteorder("<").str)
    for code in "?" + np.typecodes["AllInteger"] + np.typecodes["Float"]}
_JSON_SCALARS = {int, float, bool}


class CodecError(ValueError):
    """A request/response body failed to parse as tensor JSON."""


class Tensors(dict):
    """``{name: ndarray}`` as decoded, remembering how the peer spelled it."""

    #: True when every tensor came in the list spelling (answer in kind)
    lists = False


def encode_array(array: np.ndarray, lists: bool = False) -> Dict[str, Any]:
    """One ndarray as its JSON-transportable dict form.

    The ``b64`` spelling unless ``lists`` is set or the dtype has no raw
    wire form (anything but bool / integer / float).
    """
    array = np.asarray(array)
    wire = _WIRE_DTYPES.get(array.dtype.name)
    if lists or wire is None:
        return {"data": array.ravel().tolist(), "shape": list(array.shape),
                "dtype": str(array.dtype) if wire is None else wire.name}
    # copies only a non-contiguous or big-endian input; b64encode reads the
    # array's buffer directly
    raw = np.ascontiguousarray(array, dtype=wire)
    return {"b64": base64.b64encode(raw).decode("ascii"),
            "shape": list(array.shape), "dtype": wire.name}


def _shape(obj: Any, label: str, lowest: int) -> tuple:
    if (not isinstance(obj, list) or len(obj) > MAX_NDIM
            or not all(type(dim) is int and dim >= lowest for dim in obj)):
        raise CodecError(
            f"{label}: shape must be a list of at most {MAX_NDIM} "
            f"non-negative integers, got {_brief(obj)}")
    return tuple(obj)


def _brief(obj: Any) -> str:
    text = repr(obj)
    return text if len(text) <= 60 else text[:57] + "..."


def _from_lists(data: Any, dtype: np.dtype, label: str) -> np.ndarray:
    """``data`` (flat or nested lists of JSON numbers) as a ``dtype`` array."""
    _require_numbers(data, label, MAX_NDIM)
    try:
        with np.errstate(over="raise"):  # 1e300 into float32 is not inf
            return np.asarray(data, dtype=dtype)
    except (TypeError, ValueError, ArithmeticError) as exc:
        # ragged nesting, NaN into an integer, a number beyond the dtype
        raise CodecError(f"{label}: {exc}") from None


def _require_numbers(data: Any, label: str, depth: int) -> None:
    # numpy would coerce "1.5", "" and null; the wire format does not
    if type(data) is not list:
        raise CodecError(f"{label}: data must be a list, got {_brief(data)}")
    kinds = set(map(type, data))
    if list in kinds:
        if depth <= 1:
            raise CodecError(
                f"{label}: data is nested deeper than {MAX_NDIM} levels")
        for item in data:
            if type(item) is list:
                _require_numbers(item, label, depth - 1)
        kinds.discard(list)
    if not kinds <= _JSON_SCALARS:
        raise CodecError(
            f"{label}: data elements must be JSON numbers or booleans")


def decode_array(obj: Any, name: str = "") -> np.ndarray:
    """The inverse of :func:`encode_array`; see the module docstring for
    what is accepted.  The result is read-only."""
    label = f"tensor {name!r}" if name else "tensor"
    if isinstance(obj, list):
        array = _from_lists(obj, _WIRE_DTYPES["float32"], label)
    elif isinstance(obj, dict):
        array = _from_object(obj, label)
    else:
        raise CodecError(
            f"{label}: expected an object with b64 or data, shape and dtype, "
            f"or a nested list; got {type(obj).__name__}")
    if not array.dtype.isnative:  # a big-endian host
        array = array.astype(array.dtype.newbyteorder("="))
    array.flags.writeable = False
    return array


def _from_object(obj: Dict[str, Any], label: str) -> np.ndarray:
    raw = "b64" in obj
    if raw == ("data" in obj):
        raise CodecError(f"{label}: exactly one of b64 / data is required")
    if "shape" not in obj:
        raise CodecError(f"{label}: missing field 'shape'")
    shape = _shape(obj["shape"], label, 0 if raw else -1)
    dtype_name = obj.get("dtype", "float32")
    dtype = (_WIRE_DTYPES.get(dtype_name)
             if isinstance(dtype_name, str) else None)
    if dtype is None:
        raise CodecError(
            f"{label}: dtype must name a bool, integer or float numpy dtype "
            f"such as 'float32', got {_brief(dtype_name)}")
    array = (_from_b64(obj["b64"], shape, dtype, label) if raw
             else _from_lists(obj["data"], dtype, label))
    try:
        return array.reshape(shape)
    except ValueError:
        raise CodecError(f"{label}: {array.size} values do not fill shape "
                         f"{shape}") from None


def _from_b64(text: Any, shape: tuple, dtype: np.dtype,
              label: str) -> np.ndarray:
    if not isinstance(text, str):
        raise CodecError(f"{label}: b64 must be a string, got {_brief(text)}")
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError as exc:  # binascii.Error included
        raise CodecError(f"{label}: b64 is not valid base64: {exc}") from None
    expected = math.prod(shape) * dtype.itemsize  # Python ints: no overflow
    if len(raw) != expected:
        raise CodecError(
            f"{label}: b64 holds {len(raw)} bytes, shape {shape} of "
            f"{dtype.name} needs {expected}")
    if dtype.kind == "b":
        return np.frombuffer(raw, dtype=np.uint8) != 0
    return np.frombuffer(raw, dtype=dtype)


def _encode(key: str, tensors: Mapping[str, np.ndarray], lists: bool) -> bytes:
    return json.dumps(
        {key: {name: encode_array(array, lists)
               for name, array in tensors.items()}}).encode()


def _decode(body: bytes, key: str, what: str) -> Tensors:
    try:
        payload = json.loads(body)
    except RecursionError:
        raise CodecError(f"{what} body is nested too deeply") from None
    except (ValueError, UnicodeDecodeError) as exc:
        raise CodecError(f"{what} body is not valid JSON: {exc}") from None
    objects = payload.get(key) if isinstance(payload, dict) else None
    if not isinstance(objects, dict):
        raise CodecError(f'{what} body must be {{"{key}": {{name: tensor}}}}')
    tensors = Tensors((name, decode_array(obj, name))
                      for name, obj in objects.items())
    tensors.lists = bool(objects) and not any(
        isinstance(obj, dict) and "b64" in obj for obj in objects.values())
    return tensors


def encode_request(inputs: Mapping[str, np.ndarray],
                   lists: bool = False) -> bytes:
    """An infer-request body from a feed dict."""
    return _encode("inputs", inputs, lists)


def decode_request(body: bytes) -> Tensors:
    """The feed dict from an infer-request body."""
    inputs = _decode(body, "inputs", "request")
    if not inputs:
        raise CodecError('"inputs" must be a non-empty object')
    return inputs


def encode_outputs(outputs: Mapping[str, np.ndarray],
                   lists: bool = False) -> bytes:
    """An infer-response body from the engine's output dict."""
    return _encode("outputs", outputs, lists)


def decode_outputs(body: bytes) -> Tensors:
    """The output dict from an infer-response body (client side)."""
    return _decode(body, "outputs", "response")
