"""Element data types for IR tensors.

Mirrors the subset of ONNX element types that the reproduced models use.
The mapping to/from numpy dtypes is centralized here so the rest of the
code base never hard-codes numpy dtype strings.
"""

from __future__ import annotations

import enum
from typing import Union

import numpy as np


class DType(enum.Enum):
    """Supported tensor element types."""

    FLOAT32 = "float32"
    FLOAT64 = "float64"
    FLOAT16 = "float16"
    INT64 = "int64"
    INT32 = "int32"
    INT8 = "int8"
    UINT8 = "uint8"
    BOOL = "bool"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value

    @property
    def is_floating(self) -> bool:
        """True for floating-point element types."""
        return self in (DType.FLOAT32, DType.FLOAT64, DType.FLOAT16)

    @property
    def is_integer(self) -> bool:
        """True for integer element types (bool excluded)."""
        return self in (DType.INT64, DType.INT32, DType.INT8, DType.UINT8)

    @property
    def itemsize(self) -> int:
        """Size in bytes of one element of this type."""
        return np.dtype(self.value).itemsize


_NUMPY_TO_DTYPE = {
    np.dtype("float32"): DType.FLOAT32,
    np.dtype("float64"): DType.FLOAT64,
    np.dtype("float16"): DType.FLOAT16,
    np.dtype("int64"): DType.INT64,
    np.dtype("int32"): DType.INT32,
    np.dtype("int8"): DType.INT8,
    np.dtype("uint8"): DType.UINT8,
    np.dtype("bool"): DType.BOOL,
}


def dtype_to_numpy(dtype: DType) -> np.dtype:
    """Return the numpy dtype corresponding to an IR :class:`DType`."""
    return np.dtype(dtype.value)


def numpy_to_dtype(np_dtype: Union[np.dtype, type, str]) -> DType:
    """Return the IR :class:`DType` for a numpy dtype.

    Raises
    ------
    ValueError
        If the numpy dtype has no IR equivalent.
    """
    key = np.dtype(np_dtype)
    try:
        return _NUMPY_TO_DTYPE[key]
    except KeyError as exc:
        raise ValueError(f"unsupported numpy dtype for IR: {key}") from exc


def parse_dtype(value: Union[str, DType]) -> DType:
    """Coerce a string (e.g. ``"float32"``) or :class:`DType` into a DType."""
    if isinstance(value, DType):
        return value
    try:
        return DType(value)
    except ValueError as exc:
        raise ValueError(f"unknown dtype string: {value!r}") from exc


def promote(a: DType, b: DType) -> DType:
    """The dtype numpy computes in for array operands of dtypes ``a`` and ``b``.

    Raises ``ValueError`` when that dtype has no IR name (``uint8`` with
    ``int8`` is ``int16``).
    """
    return numpy_to_dtype(np.result_type(dtype_to_numpy(a), dtype_to_numpy(b)))
