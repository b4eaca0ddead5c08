"""Reduction operators (mean/sum/max/min/prod, argmax/argmin, topk, cumsum)."""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np


def _axes(axes: Optional[Sequence[int]], ndim: int) -> Optional[Tuple[int, ...]]:
    if axes is None:
        return None
    return tuple(int(a) % ndim for a in np.atleast_1d(np.asarray(axes)))


def reduce_mean(x: np.ndarray, axes: Optional[Sequence[int]] = None,
                keepdims: bool = True) -> np.ndarray:
    """Mean over the given axes (all axes when None)."""
    x = np.asarray(x, dtype=np.float32)
    return x.mean(axis=_axes(axes, x.ndim), keepdims=keepdims)


def reduce_sum(x: np.ndarray, axes: Optional[Sequence[int]] = None,
               keepdims: bool = True) -> np.ndarray:
    """Sum over the given axes."""
    x = np.asarray(x, dtype=np.float32)
    return x.sum(axis=_axes(axes, x.ndim), keepdims=keepdims)


def reduce_max(x: np.ndarray, axes: Optional[Sequence[int]] = None,
               keepdims: bool = True) -> np.ndarray:
    """Max over the given axes."""
    x = np.asarray(x)
    return x.max(axis=_axes(axes, x.ndim), keepdims=keepdims)


def reduce_min(x: np.ndarray, axes: Optional[Sequence[int]] = None,
               keepdims: bool = True) -> np.ndarray:
    """Min over the given axes."""
    x = np.asarray(x)
    return x.min(axis=_axes(axes, x.ndim), keepdims=keepdims)


def reduce_prod(x: np.ndarray, axes: Optional[Sequence[int]] = None,
                keepdims: bool = True) -> np.ndarray:
    """Product over the given axes."""
    x = np.asarray(x, dtype=np.float32)
    return x.prod(axis=_axes(axes, x.ndim), keepdims=keepdims)


def reduce_l2(x: np.ndarray, axes: Optional[Sequence[int]] = None,
              keepdims: bool = True) -> np.ndarray:
    """L2 norm over the given axes."""
    x = np.asarray(x, dtype=np.float32)
    return np.sqrt((x * x).sum(axis=_axes(axes, x.ndim), keepdims=keepdims))


def argmax(x: np.ndarray, axis: int = 0, keepdims: bool = True) -> np.ndarray:
    """Index of the maximum along one axis (int64)."""
    x = np.asarray(x)
    out = np.argmax(x, axis=axis)
    if keepdims:
        out = np.expand_dims(out, axis=axis)
    return out.astype(np.int64)


def argmin(x: np.ndarray, axis: int = 0, keepdims: bool = True) -> np.ndarray:
    """Index of the minimum along one axis (int64)."""
    x = np.asarray(x)
    out = np.argmin(x, axis=axis)
    if keepdims:
        out = np.expand_dims(out, axis=axis)
    return out.astype(np.int64)


def cumsum(x: np.ndarray, axis: int = 0) -> np.ndarray:
    """Cumulative sum along an axis."""
    return np.cumsum(np.asarray(x), axis=int(np.asarray(axis).reshape(())))


def topk(x: np.ndarray, k: int, axis: int = -1, largest: bool = True,
         sorted_: bool = True) -> Tuple[np.ndarray, np.ndarray]:
    """Top-k values and indices along an axis (values, indices)."""
    x = np.asarray(x)
    k = int(np.asarray(k).reshape(-1)[0])
    axis = int(axis) % x.ndim
    if largest:
        idx = np.argpartition(-x, kth=min(k - 1, x.shape[axis] - 1), axis=axis)
    else:
        idx = np.argpartition(x, kth=min(k - 1, x.shape[axis] - 1), axis=axis)
    idx = np.take(idx, np.arange(k), axis=axis)
    values = np.take_along_axis(x, idx, axis=axis)
    if sorted_:
        order = np.argsort(-values if largest else values, axis=axis)
        idx = np.take_along_axis(idx, order, axis=axis)
        values = np.take_along_axis(values, order, axis=axis)
    return values, idx.astype(np.int64)
