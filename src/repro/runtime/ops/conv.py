"""Convolution operators (NCHW-native strided gather + GEMM, no layout change).

These are the "heavy" operators of the paper's cost model.  The forward
convolution gathers every kernel window of a padded sample with **one**
strided copy (:func:`repro.runtime.tensor_utils.window_view`) into a
channel-major ``(C*KH*KW, OH*OW)`` column matrix and multiplies it by the
weights viewed as ``(M, C*KH*KW)``, so the GEMM result *is* the NCHW output:
it lands in the destination with no transpose, and every sample's GEMM has
the same shape at any batch size (results are batch-invariant).  A 1x1
stride-1 unpadded convolution skips the gather (the input already is its
own column matrix), and a depthwise convolution is the same gather followed
by one batched ``(C, mult, KH*KW) @ (C, KH*KW, OH*OW)`` GEMM.  The number of
numpy calls per sample does not depend on the kernel size.

Everything that depends only on shapes and hyper-parameters — validation,
output and padded shapes, the gather view's shape and strides, the reshape
targets and per-group row slices of the GEMM operands — is worked out once
per distinct geometry (:class:`_ConvGeometry`, memoised in ``_GEOMETRY``).

All heavy entry points are **destination-passing**: ``out=`` receives the
result and ``workspace=`` provides the padded input, the column matrix and,
when ``out`` overlaps an operand, the staging buffer, so a warm serving
loop runs the whole conv allocation-free.  The weight reshapes and their
per-group row slices are free views; only the flipped transpose-conv kernel
is derived and cached, once per weight array.
"""

from __future__ import annotations

import weakref
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
    window_view,
)


class _DerivedWeightCache:
    """Identity-keyed cache of arrays derived from a weight array.

    Weights are long-lived graph initializers, so a layout derived from one
    (the flipped transpose-conv kernel) is computed once per array instead
    of per call.  Entries are keyed by ``id()`` and guarded by a weak
    reference, so a dead weight can never be confused with an unrelated
    array that reuses its address, and the cache never keeps weights alive.
    """

    __slots__ = ("_entries",)

    def __init__(self) -> None:
        self._entries: dict = {}

    def get(self, weight: np.ndarray, key, build):
        entry = self._entries.get(id(weight))
        if entry is not None and entry[0]() is weight:
            derived = entry[1]
        else:
            address = id(weight)

            def drop(ref, address=address, entries=self._entries):
                current = entries.get(address)
                if current is not None and current[0] is ref:
                    del entries[address]

            derived = {}
            self._entries[address] = (weakref.ref(weight, drop), derived)
        value = derived.get(key)
        if value is None:
            value = derived[key] = build()
        return value


_WEIGHT_CACHE = _DerivedWeightCache()


class _ConvGeometry(NamedTuple):
    """What one ``(x.shape, w.shape, hyper-parameters)`` combination implies."""

    #: "pointwise" (1x1, stride 1, unpadded), "depthwise" or "general"
    kind: str
    out_shape: Tuple[int, int, int, int]
    #: ``[top, left, bottom, right]`` and the padded input's shape, or None
    pads: Optional[Tuple[int, int, int, int]]
    padded_shape: Optional[Tuple[int, int, int, int]]
    #: the gather view: ``(KH, KW, OH, OW)`` and its (dilation, stride) steps
    window: Tuple[int, int, int, int]
    steps: Tuple[int, int, int, int]
    #: one sample's gathered windows, ``(C, KH, KW, OH, OW)``
    cols_shape: Tuple[int, ...]
    #: GEMM operand views of the weight, the columns and the destination
    w_matrix: Tuple[int, ...]
    cols_matrix: Tuple[int, ...]
    dest_matrix: Tuple[int, ...]
    #: ``(weight / destination rows, column rows)`` of each GEMM of a sample
    gemms: Tuple[Tuple[slice, slice], ...]


def _build_geometry(x_shape, w_shape, strides, pads, dilations, group) -> _ConvGeometry:
    if len(x_shape) != 4 or len(w_shape) != 4:
        raise ValueError(f"conv2d expects 4D input/weight, got {x_shape} and {w_shape}")
    n, c, h, w = x_shape
    m, c_per_group, kh, kw = w_shape
    group = int(group)
    if c != c_per_group * group or m % group:
        raise ValueError(
            f"channel mismatch: input has {c} channels, weight expects "
            f"{c_per_group * group} and produces {m} (group={group})"
        )
    strides = as_pair(strides)
    dilations = as_pair(dilations)
    pads = tuple(normalize_pads(pads))
    oh, ow = conv_output_hw((h, w), (kh, kw), strides, pads, dilations)
    padded = any(pads)
    taps, positions = kh * kw, oh * ow
    if c_per_group == 1 and group > 1:
        # One batched GEMM over the channels (any channel multiplier).
        kind = "depthwise"
        w_matrix = (c, m // c, taps)
        cols_matrix = (c, taps, positions)
        dest_matrix = (n, c, m // c, positions)
        gemms = ((slice(None), slice(None)),)
    else:
        # One contiguous 2-D GEMM per group: a group's rows of the NCHW
        # destination are strided across the batch, which
        # ``np.matmul(out=)`` must never be handed.
        kind = ("pointwise" if (kh, kw, *strides) == (1, 1, 1, 1) and not padded
                else "general")
        m_per_group, k_per_group = m // group, c_per_group * taps
        w_matrix = (m, k_per_group)
        cols_matrix = (c * taps, positions)
        dest_matrix = (n, m, positions)
        gemms = tuple((slice(g * m_per_group, (g + 1) * m_per_group),
                       slice(g * k_per_group, (g + 1) * k_per_group))
                      for g in range(group))
    return _ConvGeometry(
        kind=kind,
        out_shape=(n, m, oh, ow),
        pads=pads if padded else None,
        padded_shape=((n, c, h + pads[0] + pads[2], w + pads[1] + pads[3])
                      if padded else None),
        window=(kh, kw, oh, ow),
        steps=dilations + strides,
        cols_shape=(c, kh, kw, oh, ow),
        w_matrix=w_matrix,
        cols_matrix=cols_matrix,
        dest_matrix=dest_matrix,
        gemms=gemms,
    )


#: Geometry records keyed by ``(x.shape, w.shape, strides, pads, dilations,
#: group)``; an invalid combination raises and is not stored.  Addresses are
#: not part of the key: ``out=`` validation and the aliasing checks stay per
#: call.
_GEOMETRY = BoundedMemo(_build_geometry, bound=1024)


def _conv_geometry(x_shape, w_shape, strides, pads, dilations, group) -> _ConvGeometry:
    return _GEOMETRY[x_shape, w_shape, hashable(strides), hashable(pads),
                     hashable(dilations), group]


def conv_kind(x_shape, w_shape, strides, pads, dilations, group) -> str:
    """Which of the three code paths a convolution takes (profiler tables)."""
    return _conv_geometry(tuple(x_shape), tuple(w_shape), strides, pads,
                          dilations, group).kind


def _conv_forward(batch: np.ndarray, weight: np.ndarray, geometry: _ConvGeometry,
                  out: Optional[np.ndarray], workspace) -> np.ndarray:
    """Convolve one (sub-)batch, writing the NCHW result into ``out``."""
    if out is None:
        dest = np.empty(geometry.out_shape, dtype=np.float32)
    else:
        if out.shape != geometry.out_shape or out.dtype != np.float32:
            raise ValueError(
                f"conv2d out buffer has shape {out.shape}/{out.dtype}, "
                f"expected {geometry.out_shape}/float32")
        if (not out.flags.c_contiguous
                or np.may_share_memory(out, batch)
                or np.may_share_memory(out, weight)):
            # Compute into a private contiguous buffer, then copy: the
            # destination either overlaps an operand (so writing it would
            # corrupt later reads) or cannot be viewed as the GEMM result
            # of each sample.
            staging = scratch(workspace, geometry.out_shape)
            _conv_forward(batch, weight, geometry, staging, workspace)
            np.copyto(out, staging)
            return out
        dest = out
    # Over samples that are each contiguous (a channel-slice view of a batch
    # still is) a pointwise conv's input is its own column matrix.
    gather = not (geometry.kind == "pointwise" and batch[:1].flags.c_contiguous)
    if gather:
        x_p = batch
        if geometry.pads is not None:
            x_p = pad_nchw(batch, geometry.pads,
                           out=scratch(workspace, geometry.padded_shape))
        windows = window_view(x_p, geometry.window, geometry.steps)
        # Refilled per sample so it stays cache-resident and the GEMM shape
        # does not depend on the batch size.
        cols = scratch(workspace, geometry.cols_shape)
        cols_matrix = cols.reshape(geometry.cols_matrix)
    w_matrix = weight.reshape(geometry.w_matrix)
    dest_matrix = dest.reshape(geometry.dest_matrix)
    for i in range(geometry.out_shape[0]):
        if gather:
            np.copyto(cols, windows[i])
        else:
            cols_matrix = batch[i].reshape(geometry.cols_matrix)
        for rows, cols_rows in geometry.gemms:
            np.matmul(w_matrix[rows], cols_matrix[cols_rows],
                      out=dest_matrix[i, rows])
    return dest


def conv2d(
    x: np.ndarray,
    weight: np.ndarray,
    bias: Optional[np.ndarray] = None,
    strides: Sequence[int] = (1, 1),
    pads: Sequence[int] = (0, 0, 0, 0),
    dilations: Sequence[int] = (1, 1),
    group: int = 1,
    out: Optional[np.ndarray] = None,
    workspace=None,
) -> np.ndarray:
    """2D convolution with ONNX ``Conv`` semantics.

    Parameters
    ----------
    x:
        Input activations, shape ``(N, C, H, W)``.
    weight:
        Filters, shape ``(M, C/group, KH, KW)``.
    bias:
        Optional per-output-channel bias of shape ``(M,)``; added in place
        on the result buffer.
    strides, pads, dilations, group:
        Standard convolution hyper-parameters; ``pads`` is
        ``[top, left, bottom, right]`` (a 2-element form is accepted).
    out:
        Optional destination of shape ``(N, M, OH, OW)`` (float32).  May
        alias ``x``; the op then stages through scratch before writing.
    workspace:
        Optional scratch provider (see
        :class:`repro.runtime.tensor_utils.Workspace`) for the padded
        input, the column matrix and the aliasing staging buffer.  It is
        reset before the call returns.
    """
    x = np.asarray(x, dtype=np.float32)
    weight = np.asarray(weight, dtype=np.float32)
    geometry = _conv_geometry(x.shape, weight.shape, strides, pads, dilations, group)
    if bias is not None:
        bias = np.asarray(bias, dtype=np.float32)
        if out is not None and np.may_share_memory(out, bias):
            bias = bias.copy()  # the convolution would overwrite it first

    try:
        result = _conv_forward(x, weight, geometry, out, workspace)
        if bias is not None:
            # The destination is exclusively ours at this point, so the
            # bias broadcast-adds in place instead of allocating.
            np.add(result, bias.reshape(1, -1, 1, 1), out=result)
        return result
    finally:
        reset_workspace(workspace)


def conv_transpose2d(
    x: np.ndarray,
    weight: np.ndarray,
    bias: Optional[np.ndarray] = None,
    strides: Sequence[int] = (1, 1),
    pads: Sequence[int] = (0, 0, 0, 0),
    output_padding: Sequence[int] = (0, 0),
    group: int = 1,
    out: Optional[np.ndarray] = None,
    workspace=None,
) -> np.ndarray:
    """Transposed convolution (a.k.a. deconvolution), ONNX ``ConvTranspose``.

    Implemented by scattering the input into a zero-dilated buffer and then
    running a regular convolution with the spatially-flipped kernel.  Only
    ``group == 1`` is supported, which covers the model zoo's usage.  The
    flipped kernel is cached per weight array; ``out=``/``workspace=``
    behave as in :func:`conv2d`.
    """
    if int(group) != 1:
        raise NotImplementedError("conv_transpose2d only supports group=1")
    x = np.asarray(x, dtype=np.float32)
    weight = np.asarray(weight, dtype=np.float32)
    n, c, h, w = x.shape
    c_in, m, kh, kw = weight.shape
    if c != c_in:
        raise ValueError(f"channel mismatch: input {c} vs weight {c_in}")
    sh, sw = as_pair(strides)
    pads = normalize_pads(pads)
    oph, opw = as_pair(output_padding)
    if bias is not None:
        bias = np.asarray(bias, dtype=np.float32)
        if out is not None and np.may_share_memory(out, bias):
            bias = bias.copy()  # the convolution would overwrite it first

    try:
        # Scatter input with stride-1 zeros between elements.
        dilated_h = (h - 1) * sh + 1
        dilated_w = (w - 1) * sw + 1
        buf = scratch(workspace, (n, c, dilated_h, dilated_w))
        buf.fill(0.0)
        buf[:, :, ::sh, ::sw] = x

        # Full correlation with flipped kernel == transposed convolution.
        flipped = _WEIGHT_CACHE.get(
            weight, "flipped",
            lambda: np.ascontiguousarray(
                weight[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)))  # (M, C, KH, KW)
        full_pads = [kh - 1 - pads[0], kw - 1 - pads[1],
                     kh - 1 - pads[2] + oph, kw - 1 - pads[3] + opw]
        result = conv2d(buf, flipped, bias=None, strides=(1, 1), pads=full_pads,
                        out=out, workspace=workspace)
        if bias is not None:
            np.add(result, bias.reshape(1, -1, 1, 1), out=result)
        return result
    finally:
        reset_workspace(workspace)


def depthwise_conv2d(
    x: np.ndarray,
    weight: np.ndarray,
    bias: Optional[np.ndarray] = None,
    strides: Sequence[int] = (1, 1),
    pads: Sequence[int] = (1, 1, 1, 1),
    dilations: Sequence[int] = (1, 1),
    out: Optional[np.ndarray] = None,
    workspace=None,
) -> np.ndarray:
    """Depthwise convolution: one filter per input channel (group == C)."""
    channels = x.shape[1]
    return conv2d(x, weight, bias, strides=strides, pads=pads, dilations=dilations,
                  group=channels, out=out, workspace=workspace)


def conv1d(
    x: np.ndarray,
    weight: np.ndarray,
    bias: Optional[np.ndarray] = None,
    stride: int = 1,
    pad: int = 0,
) -> np.ndarray:
    """1D convolution implemented by reusing :func:`conv2d` on a 1-pixel-high image."""
    x4 = np.asarray(x, dtype=np.float32)[:, :, None, :]
    w4 = np.asarray(weight, dtype=np.float32)[:, :, None, :]
    out = conv2d(x4, w4, bias, strides=(1, stride), pads=(0, pad, 0, pad))
    return out[:, :, 0, :]
