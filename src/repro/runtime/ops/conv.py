"""Convolution operators (NCHW-native tap copies + GEMM, no layout change).

These are the "heavy" operators of the paper's cost model.  The forward
convolution copies the KH*KW kernel taps of the padded input (see
:func:`repro.runtime.tensor_utils.tap_views`) into a channel-major
``(C*KH*KW, OH*OW)`` column matrix per sample and multiplies it by the
weights viewed as ``(M, C*KH*KW)``, so the GEMM result *is* the NCHW output:
it lands in the destination with no transpose, and every sample's GEMM has
the same shape at any batch size (results are batch-invariant).  A 1x1
stride-1 unpadded convolution skips the copy (the input already is its own
column matrix) and a depthwise convolution is KH*KW multiply-accumulate
sweeps instead of C one-row GEMMs.

All heavy entry points are **destination-passing**: ``out=`` receives the
result and ``workspace=`` provides the padded input, the column matrix
(or the depthwise product buffer) and, when ``out`` overlaps an operand,
the staging buffer, so a warm serving loop runs the whole conv
allocation-free.  ``weight.reshape(M, -1)`` and its per-group row slices
are free views; only the flipped transpose-conv kernel is derived and
cached, once per weight array.
"""

from __future__ import annotations

import weakref
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.runtime.intra_op import get_num_threads, parallel_over_batch
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


def _conv_forward(
    batch: np.ndarray,
    weight: np.ndarray,
    strides: Tuple[int, int],
    pads: Sequence[int],
    dilations: Tuple[int, int],
    group: int,
    out: Optional[np.ndarray],
    workspace,
) -> np.ndarray:
    """Convolve one (sub-)batch, writing the NCHW result into ``out``."""
    n, c, h, w = batch.shape
    m, c_per_group, kh, kw = weight.shape
    oh, ow = conv_output_hw((h, w), (kh, kw), strides, pads, dilations)
    out_shape = (n, m, oh, ow)
    if out is None:
        dest = np.empty(out_shape, dtype=np.float32)
    else:
        if out.shape != out_shape or out.dtype != np.float32:
            raise ValueError(
                f"conv2d out buffer has shape {out.shape}/{out.dtype}, "
                f"expected {out_shape}/float32")
        if (not out.flags.c_contiguous
                or np.may_share_memory(out, batch)
                or np.may_share_memory(out, weight)):
            # Compute into a private contiguous buffer, then copy: the
            # destination either overlaps an operand (so writing it would
            # corrupt later reads) or cannot be viewed as the (M, OH*OW)
            # GEMM result of each sample.
            staging = scratch(workspace, out_shape)
            _conv_forward(batch, weight, strides, pads, dilations, group,
                          staging, workspace)
            np.copyto(out, staging)
            return out
        dest = out
    depthwise = c_per_group == 1 and group > 1
    # 1x1 / stride 1 / unpadded over samples that are each contiguous (a
    # channel-slice view of a batch still is): the input is its own columns.
    pointwise = (not depthwise and (kh, kw) == (1, 1) and strides == (1, 1)
                 and not any(pads) and batch[:1].flags.c_contiguous)
    x_p = batch
    if any(pads):
        x_p = pad_nchw(batch, pads, out=scratch(
            workspace, padded_shape(batch.shape, pads)))
    geometry = ((kh, kw), strides, dilations, (oh, ow))
    if depthwise:
        # One multiply-accumulate sweep per tap over the whole output,
        # broadcasting each channel's weight (any channel multiplier).
        dest5 = dest.reshape(n, c, m // c, oh, ow)
        w_taps = weight.reshape(1, c, m // c, kh * kw, 1, 1)
        prod = scratch(workspace, dest5.shape)
        taps = tap_views(x_p, *geometry)
        np.multiply(next(taps)[:, :, None], w_taps[:, :, :, 0], out=dest5)
        for t, tap in enumerate(taps, 1):
            np.multiply(tap[:, :, None], w_taps[:, :, :, t], out=prod)
            np.add(dest5, prod, out=dest5)
        return dest
    # One contiguous GEMM per (sample, group), on a column matrix that is
    # refilled per sample so it stays cache-resident: the GEMM shape does not
    # depend on the batch size, and a group's rows of ``dest`` are strided
    # across the batch, which ``np.matmul(out=)`` must never be handed.
    w_mat = weight.reshape(m, -1)
    m_per_group = m // group
    k_per_group = c_per_group * kh * kw
    if not pointwise:
        cols4 = scratch(workspace, (c, kh * kw, oh, ow))
        cols = cols4.reshape(c * kh * kw, oh * ow)
    for i in range(n):
        if pointwise:
            cols = batch[i].reshape(c, h * w)
        else:
            for t, tap in enumerate(tap_views(x_p[i], *geometry)):
                np.copyto(cols4[:, t], tap)
        for g in range(group):
            rows = slice(g * m_per_group, (g + 1) * m_per_group)
            np.matmul(w_mat[rows], cols[g * k_per_group:(g + 1) * k_per_group],
                      out=dest[i, rows].reshape(m_per_group, oh * ow))
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
    if x.ndim != 4 or weight.ndim != 4:
        raise ValueError(f"conv2d expects 4D input/weight, got {x.shape} and {weight.shape}")
    n, c, _, _ = x.shape
    m, c_per_group, kh, kw = weight.shape
    group = int(group)
    if c != c_per_group * group:
        raise ValueError(
            f"channel mismatch: input has {c} channels, weight expects "
            f"{c_per_group * group} (group={group})"
        )
    strides = as_pair(strides)
    dilations = as_pair(dilations)
    pads = normalize_pads(list(pads))
    if bias is not None:
        bias = np.asarray(bias, dtype=np.float32)
        if out is not None and np.may_share_memory(out, bias):
            bias = bias.copy()  # the convolution would overwrite it first

    try:
        if get_num_threads() > 1 and n > 1:
            # The intra-op path shards the batch and concatenates; chunks
            # compute without destinations, then land in ``out`` at the end.
            def _convolve(chunk: np.ndarray) -> np.ndarray:
                return _conv_forward(chunk, weight, strides, pads,
                                     dilations, group, None, None)

            result = parallel_over_batch(_convolve, x)
            if out is not None:
                if out.shape != result.shape or out.dtype != result.dtype:
                    raise ValueError(
                        f"conv2d out buffer has shape {out.shape}/{out.dtype}, "
                        f"expected {result.shape}/{result.dtype}")
                np.copyto(out, result)
                result = out
        else:
            result = _conv_forward(x, weight, strides, pads,
                                   dilations, group, out, workspace)
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
    pads = normalize_pads(list(pads))
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
