"""Tensor value descriptions (name + dtype + shape) and shape helpers."""

from __future__ import annotations

import dataclasses
import math
from typing import Optional, Sequence, Tuple, Union

from repro.ir.dtypes import DType, parse_dtype

#: A tensor shape.  ``None`` in a dimension means "dynamic / unknown"
#: (e.g. a symbolic batch dimension), ``None`` as the whole shape means the
#: rank itself is unknown.
Shape = Optional[Tuple[Optional[int], ...]]


def normalize_shape(shape: Union[None, Sequence[Optional[int]]]) -> Shape:
    """Normalize any sequence of dims into the canonical tuple form.

    Negative dimensions are rejected; ``None`` dims pass through.
    """
    if shape is None:
        return None
    dims = []
    for d in shape:
        if d is None:
            dims.append(None)
            continue
        d = int(d)
        if d < 0:
            raise ValueError(f"negative dimension in shape: {tuple(shape)}")
        dims.append(d)
    return tuple(dims)


def num_elements(shape: Shape) -> Optional[int]:
    """Number of elements of a shape, or ``None`` if any dim is unknown."""
    if shape is None:
        return None
    total = 1
    for d in shape:
        if d is None:
            return None
        total *= d
    return total


def is_static(shape: Shape) -> bool:
    """True when the shape is fully known (no ``None`` dims, known rank)."""
    return shape is not None and all(d is not None for d in shape)


def broadcast_shapes(a: Shape, b: Shape) -> Shape:
    """Numpy-style broadcasting of two (possibly partially unknown) shapes."""
    if a is None or b is None:
        return None
    ra, rb = len(a), len(b)
    rank = max(ra, rb)
    # Missing leading dimensions broadcast as 1 (numpy semantics).
    padded_a = (1,) * (rank - ra) + tuple(a)
    padded_b = (1,) * (rank - rb) + tuple(b)
    out = []
    for da, db in zip(padded_a, padded_b):
        if da is None and db is None:
            out.append(None)
        elif da is None:
            out.append(db if db != 1 else None)
        elif db is None:
            out.append(da if da != 1 else None)
        elif da == db or db == 1:
            out.append(da)
        elif da == 1:
            out.append(db)
        else:
            raise ValueError(f"shapes {a} and {b} are not broadcastable")
    return tuple(out)


class _Sizes:
    """``TensorInfo.num_elements`` and ``.nbytes``.  The info is frozen, so
    the first read of either computes both into the instance, where every
    later read finds them as plain attributes."""

    def __set_name__(self, owner: type, name: str) -> None:
        self.name = name

    def __get__(self, info: Optional["TensorInfo"], owner: type = None):
        if info is None:
            return self
        count = num_elements(info.shape)
        info.__dict__["num_elements"] = count
        info.__dict__["nbytes"] = None if count is None else count * info.dtype.itemsize
        return info.__dict__[self.name]


@dataclasses.dataclass(frozen=True)
class TensorInfo:
    """Description of a tensor value flowing along a graph edge.

    Parameters
    ----------
    name:
        Unique SSA-style value name within the graph.
    dtype:
        Element type.
    shape:
        Tuple of dimensions; ``None`` entries are dynamic, ``None`` as a
        whole means unknown rank.
    """

    name: str
    dtype: DType = DType.FLOAT32
    shape: Shape = None
    #: total element count, or None if any dimension is dynamic
    num_elements = _Sizes()
    #: size in bytes, or None when the shape is not fully static
    nbytes = _Sizes()

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("TensorInfo requires a non-empty name")
        object.__setattr__(self, "dtype", parse_dtype(self.dtype))
        object.__setattr__(self, "shape", normalize_shape(self.shape))

    # ------------------------------------------------------------------
    # Convenience accessors
    # ------------------------------------------------------------------
    @property
    def rank(self) -> Optional[int]:
        """Rank (number of dimensions), or None if unknown."""
        return None if self.shape is None else len(self.shape)

    def is_static(self) -> bool:
        """True when the full shape is known."""
        return is_static(self.shape)

    def with_shape(self, shape: Union[None, Sequence[Optional[int]]]) -> "TensorInfo":
        """Return a copy of this info with a different shape."""
        return TensorInfo(self.name, self.dtype, normalize_shape(shape))

    def with_name(self, name: str) -> "TensorInfo":
        """Return a copy of this info with a different name."""
        return TensorInfo(name, self.dtype, self.shape)

    # ------------------------------------------------------------------
    # Serialization helpers
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-compatible dictionary form."""
        return {
            "name": self.name,
            "dtype": self.dtype.value,
            "shape": None if self.shape is None else list(self.shape),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TensorInfo":
        """Inverse of :meth:`to_dict`."""
        return cls(
            name=data["name"],
            dtype=parse_dtype(data.get("dtype", "float32")),
            shape=data.get("shape"),
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        shape = "?" if self.shape is None else "x".join(
            "?" if d is None else str(d) for d in self.shape
        )
        return f"TensorInfo({self.name!r}, {self.dtype.value}, {shape})"


def conv_output_dim(
    in_dim: Optional[int],
    kernel: int,
    stride: int = 1,
    pad_begin: int = 0,
    pad_end: int = 0,
    dilation: int = 1,
) -> Optional[int]:
    """Standard convolution/pooling output-size formula for one dimension."""
    if in_dim is None:
        return None
    effective_kernel = dilation * (kernel - 1) + 1
    out = (in_dim + pad_begin + pad_end - effective_kernel) // stride + 1
    return max(int(out), 0)


def pool_output_dim(
    in_dim: Optional[int],
    kernel: int,
    stride: int = 1,
    pad_begin: int = 0,
    pad_end: int = 0,
    ceil_mode: bool = False,
) -> Optional[int]:
    """Pooling output-size formula (optionally with ceil rounding)."""
    if in_dim is None:
        return None
    numer = in_dim + pad_begin + pad_end - kernel
    if ceil_mode:
        out = math.ceil(numer / stride) + 1
    else:
        out = numer // stride + 1
    return max(int(out), 0)
