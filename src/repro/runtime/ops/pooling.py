"""Pooling operators (max / average / global), ONNX semantics, NCHW layout.

``max_pool2d`` / ``avg_pool2d`` are **separable folds**: ``KH - 1``
``np.maximum`` / ``np.add`` passes fold the kernel's rows over the padded
input into an ``(N, C, OH, columns)`` scratch, then ``KW - 1`` passes fold
its columns into the destination — ``KH + KW - 2`` numpy calls instead of
one per kernel cell, and a ``1 x k`` or ``k x 1`` kernel is the same code
with one stage empty.  Rows go first because a whole padded row is a
unit-stride run whatever the stride, so the stage that reads the larger
tensor is the one with long vectorisable inner loops (measured: equal at
stride 1, 15-30 % faster at stride 2 than columns first).  Output and padded
shapes (incl. the ceil-mode extension) and the index of every fold operand
are worked out once per distinct geometry (:class:`_PoolGeometry`, memoised
in ``_GEOMETRY``).  The kernels are destination-passing: the last stage
accumulates directly in ``out=`` and the padded input and the row-folded
scratch come from the caller's ``workspace=``, so a warm loop allocates
nothing.  The average-pool divisor grid (which depends only on spatial
geometry, not on data) is computed once per geometry and cached.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.runtime.tensor_utils import (
    BoundedMemo,
    as_pair,
    conv_output_hw,
    hashable,
    normalize_pads,
    pad_nchw,
    reset_workspace,
    scratch,
)


class _PoolGeometry(NamedTuple):
    """What one ``(x.shape, kernel, strides, pads, ceil_mode)`` combination implies."""

    out_shape: Tuple[int, int, int, int]
    #: ``[top, left, bottom, right]`` incl. the ceil-mode extension (None
    #: when there is nothing to pad) and the padded input's shape
    pads: Optional[Tuple[int, int, int, int]]
    padded_shape: Tuple[int, int, int, int]
    #: indices into the padded input, one per kernel row (none when
    #: KH == 1 < KW): each keeps the columns the column stage reads
    row_folds: Tuple[Tuple, ...]
    #: where the folded rows go when a column stage follows
    folded_shape: Tuple[int, int, int, int]
    #: indices into the folded rows, one per kernel column (none when KW == 1)
    col_folds: Tuple[Tuple, ...]
    #: KH * KW, the ``count_include_pad`` divisor
    window_size: int
    #: this geometry at batch 1, channel 1 (itself a ``_pool_geometry``
    #: argument tuple): what the average-pool divisor grid depends on
    divisor_key: Tuple


def _build_geometry(x_shape, kernel, strides, pads, ceil_mode) -> _PoolGeometry:
    if len(x_shape) != 4:
        raise ValueError(f"pooling expects a 4D NCHW tensor, got shape {x_shape}")
    n, c, h, w = x_shape
    kh, kw = as_pair(kernel)
    sh, sw = as_pair(strides)
    given_pads = tuple(normalize_pads(pads))
    top, left, bottom, right = given_pads
    if ceil_mode:
        # Extend the bottom/right padding so the last partial window is kept.
        rem_h = (h + top + bottom - kh) % sh
        rem_w = (w + left + right - kw) % sw
        if rem_h:
            bottom += sh - rem_h
        if rem_w:
            right += sw - rem_w
    full_pads = (top, left, bottom, right)
    oh, ow = conv_output_hw((h, w), (kh, kw), (sh, sw), full_pads)
    # Each stage strides down to the output grid along its own axis; a
    # stage with nothing to fold is skipped and the other one strides both.
    cols = slice(0, (ow - 1) * sw + kw) if kw > 1 else slice(0, (ow - 1) * sw + 1, sw)
    rows = slice(None) if kh > 1 else slice(0, (oh - 1) * sh + 1, sh)
    return _PoolGeometry(
        out_shape=(n, c, oh, ow),
        pads=full_pads if any(full_pads) else None,
        padded_shape=(n, c, h + top + bottom, w + left + right),
        row_folds=tuple((Ellipsis, slice(i, i + (oh - 1) * sh + 1, sh), cols)
                        for i in range(kh)) if kh > 1 or kw == 1 else (),
        folded_shape=(n, c, oh, cols.stop),
        col_folds=tuple((Ellipsis, rows, slice(j, j + (ow - 1) * sw + 1, sw))
                        for j in range(kw)) if kw > 1 else (),
        window_size=kh * kw,
        divisor_key=((1, 1, h, w), (kh, kw), (sh, sw), given_pads, bool(ceil_mode)),
    )


#: Geometry records (plain python values: valid on any thread, nothing to
#: free) keyed by ``(x.shape, kernel, strides, pads, ceil_mode)``; an invalid
#: combination raises and is not stored.
_GEOMETRY = BoundedMemo(_build_geometry, bound=1024)


def _pool_geometry(x_shape, kernel, strides, pads, ceil_mode) -> _PoolGeometry:
    return _GEOMETRY[x_shape, hashable(kernel), hashable(strides), hashable(pads),
                     ceil_mode]


def _fold_stage(fold: np.ufunc, source: np.ndarray, operands: Tuple[Tuple, ...],
                dest: np.ndarray) -> None:
    """``dest = fold(source[index] for index in operands)``: one numpy call
    per kernel row (or column) after the first."""
    if len(operands) == 1:  # a 1x1 kernel: nothing to fold
        np.copyto(dest, source[operands[0]])
        return
    fold(source[operands[0]], source[operands[1]], out=dest)  # not copy-then-fold
    for index in operands[2:]:
        fold(dest, source[index], out=dest)


def _pool_sweep(
    x: np.ndarray,
    fold: np.ufunc,
    geometry: _PoolGeometry,
    pad_value: float,
    out: Optional[np.ndarray] = None,
    workspace=None,
) -> np.ndarray:
    """Pad and fold every window with ``fold``, rows first, then columns.

    The folded windows land in ``out`` (staged through scratch when it
    overlaps the swept tensor) or in a fresh array.
    """
    x_p = x
    if geometry.pads is not None:
        x_p = pad_nchw(x, geometry.pads, value=pad_value,
                       out=scratch(workspace, geometry.padded_shape))
    dest = out
    if out is None:
        dest = np.empty(geometry.out_shape, dtype=np.float32)
    elif out.shape != geometry.out_shape or out.dtype != np.float32:
        raise ValueError(
            f"pooling out buffer has shape {out.shape}/{out.dtype}, "
            f"expected {geometry.out_shape}/float32")
    elif np.may_share_memory(out, x_p):
        dest = scratch(workspace, geometry.out_shape)
    folded = x_p
    if geometry.row_folds:
        folded = (scratch(workspace, geometry.folded_shape) if geometry.col_folds
                  else dest)
        _fold_stage(fold, x_p, geometry.row_folds, folded)
    if geometry.col_folds:
        _fold_stage(fold, folded, geometry.col_folds, dest)
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
    geometry = _pool_geometry(x.shape, kernel, strides, pads, ceil_mode)
    try:
        return _pool_sweep(x, np.maximum, geometry, -np.inf, out, workspace)
    finally:
        reset_workspace(workspace)


def _divisor_grid(*key) -> np.ndarray:
    ones = np.ones(key[0], dtype=np.float32)
    counts = _pool_sweep(ones, np.add, _pool_geometry(*key), 0.0)
    return np.maximum(counts, 1.0, out=counts)


#: Average-pool divisor grids keyed by spatial geometry
#: (``_PoolGeometry.divisor_key``).  The divisor only depends on (H, W) and
#: the pooling hyper-parameters — not on batch, channels or data — so it is
#: computed on a (1, 1, H, W) ones tensor once and broadcast against every
#: subsequent call with the same geometry.
_DIVISOR_CACHE = BoundedMemo(_divisor_grid, bound=128)


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
    geometry = _pool_geometry(x.shape, kernel, strides, pads, ceil_mode)
    try:
        sums = _pool_sweep(x, np.add, geometry, 0.0, out, workspace)
        if count_include_pad:
            counts = np.float32(geometry.window_size)
        else:
            counts = _DIVISOR_CACHE[geometry.divisor_key]
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
