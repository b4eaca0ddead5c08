"""Pooling operators (max / average / global), ONNX semantics, NCHW layout.

``max_pool2d`` / ``avg_pool2d`` fold the KH*KW kernel taps of the padded
input (:func:`repro.runtime.tensor_utils.tap_views`) into the destination
with one ``np.maximum`` / ``np.add`` sweep per tap.  They are
destination-passing: the sweeps accumulate directly in ``out=`` and the
padded input comes from the caller's ``workspace=``, so a warm loop
allocates nothing.  The average-pool divisor grid (which depends only on
spatial geometry, not on data) is computed once per geometry and cached.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.runtime.tensor_utils import (
    as_pair,
    conv_output_hw,
    normalize_pads,
    pad_nchw,
    padded_shape,
    reset_workspace,
    scratch,
    tap_views,
)


def _pool_geometry(
    shape: Tuple[int, ...],
    kernel: Sequence[int],
    strides: Sequence[int],
    pads: Sequence[int],
    ceil_mode: bool,
) -> Tuple[Tuple[int, int], Tuple[int, int], Tuple[int, int, int, int]]:
    """Resolved ``(kernel, strides, pads)`` incl. the ceil-mode extension."""
    kh, kw = as_pair(kernel)
    sh, sw = as_pair(strides)
    top, left, bottom, right = normalize_pads(list(pads))
    if ceil_mode:
        # Extend the bottom/right padding so the last partial window is kept.
        h = shape[2] + top + bottom
        w = shape[3] + left + right
        rem_h = (h - kh) % sh
        rem_w = (w - kw) % sw
        if rem_h:
            bottom += sh - rem_h
        if rem_w:
            right += sw - rem_w
    return (kh, kw), (sh, sw), (top, left, bottom, right)


def _pool_sweep(
    x: np.ndarray,
    fold: np.ufunc,
    kernel: Sequence[int],
    strides: Sequence[int],
    pads: Sequence[int],
    ceil_mode: bool,
    pad_value: float,
    out: Optional[np.ndarray] = None,
    workspace=None,
) -> np.ndarray:
    """Pad (with optional ceil-mode extension) and fold the taps with ``fold``.

    The folded windows land in ``out`` (staged through scratch when it
    overlaps the swept tensor) or in a fresh array.
    """
    if x.ndim != 4:
        raise ValueError(f"pooling expects a 4D NCHW tensor, got shape {x.shape}")
    kernel, strides, full_pads = _pool_geometry(x.shape, kernel, strides,
                                                pads, ceil_mode)
    out_hw = conv_output_hw(x.shape[2:], kernel, strides, full_pads)
    out_shape = x.shape[:2] + out_hw
    x_p = x
    if any(full_pads):
        x_p = pad_nchw(x, full_pads, value=pad_value, out=scratch(
            workspace, padded_shape(x.shape, full_pads)))
    dest = out
    if out is None:
        dest = np.empty(out_shape, dtype=np.float32)
    elif out.shape != out_shape or out.dtype != np.float32:
        raise ValueError(
            f"pooling out buffer has shape {out.shape}/{out.dtype}, "
            f"expected {out_shape}/float32")
    elif np.may_share_memory(out, x_p):
        dest = scratch(workspace, out_shape)
    taps = tap_views(x_p, kernel, strides, (1, 1), out_hw)
    first = next(taps)
    second = next(taps, None)
    if second is None:
        np.copyto(dest, first)
    else:
        fold(first, second, out=dest)  # one pass fewer than copy-then-fold
        for tap in taps:
            fold(dest, tap, out=dest)
    if out is not None and dest is not out:
        np.copyto(out, dest)
        return out
    return dest


def max_pool2d(
    x: np.ndarray,
    kernel: Sequence[int],
    strides: Sequence[int] = (1, 1),
    pads: Sequence[int] = (0, 0, 0, 0),
    ceil_mode: bool = False,
    out: Optional[np.ndarray] = None,
    workspace=None,
) -> np.ndarray:
    """2D max pooling (padding contributes ``-inf`` so it never wins)."""
    x = np.asarray(x, dtype=np.float32)
    try:
        return _pool_sweep(x, np.maximum, kernel, strides, pads, ceil_mode,
                           -np.inf, out, workspace)
    finally:
        reset_workspace(workspace)


#: Average-pool divisor grids keyed by spatial geometry.  The divisor only
#: depends on (H, W) and the pooling hyper-parameters — not on batch,
#: channels or data — so it is computed on a (1, 1, H, W) ones tensor once
#: and broadcast against every subsequent call with the same geometry.
_DIVISOR_CACHE: Dict[Tuple, np.ndarray] = {}
_DIVISOR_CACHE_MAX = 128


def _avg_pool_divisors(
    spatial: Tuple[int, int],
    kernel: Sequence[int],
    strides: Sequence[int],
    pads: Sequence[int],
    ceil_mode: bool,
) -> np.ndarray:
    key = (spatial, as_pair(kernel), as_pair(strides),
           tuple(normalize_pads(list(pads))), bool(ceil_mode))
    counts = _DIVISOR_CACHE.get(key)
    if counts is None:
        ones = np.ones((1, 1) + spatial, dtype=np.float32)
        counts = _pool_sweep(ones, np.add, kernel, strides, pads,
                             ceil_mode, 0.0)
        np.maximum(counts, 1.0, out=counts)
        if len(_DIVISOR_CACHE) >= _DIVISOR_CACHE_MAX:
            _DIVISOR_CACHE.clear()
        _DIVISOR_CACHE[key] = counts
    return counts


def avg_pool2d(
    x: np.ndarray,
    kernel: Sequence[int],
    strides: Sequence[int] = (1, 1),
    pads: Sequence[int] = (0, 0, 0, 0),
    ceil_mode: bool = False,
    count_include_pad: bool = False,
    out: Optional[np.ndarray] = None,
    workspace=None,
) -> np.ndarray:
    """2D average pooling.

    The default ``count_include_pad=False`` matches the ONNX ``AveragePool``
    default: the divisor counts only the non-padded elements of each window.
    Pass ``count_include_pad=True`` for models exported with
    ``count_include_pad=1``, where padding zeros participate in the mean.
    """
    x = np.asarray(x, dtype=np.float32)
    try:
        sums = _pool_sweep(x, np.add, kernel, strides, pads, ceil_mode,
                           0.0, out, workspace)
        if count_include_pad:
            kh, kw = as_pair(kernel)
            counts = np.float32(kh * kw)
        else:
            counts = _avg_pool_divisors(x.shape[2:], kernel, strides, pads,
                                        ceil_mode)
        return np.divide(sums, counts, out=sums)
    finally:
        reset_workspace(workspace)


def global_avg_pool2d(x: np.ndarray) -> np.ndarray:
    """Global average pooling to a 1x1 spatial map."""
    x = np.asarray(x, dtype=np.float32)
    return x.mean(axis=(2, 3), keepdims=True, dtype=np.float32)


def global_max_pool2d(x: np.ndarray) -> np.ndarray:
    """Global max pooling to a 1x1 spatial map."""
    x = np.asarray(x, dtype=np.float32)
    return x.max(axis=(2, 3), keepdims=True)
