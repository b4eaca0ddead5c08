"""Low-level numpy helpers shared by the operator implementations.

Following the HPC-Python guidance used for this project, the hot paths
(convolution, pooling) avoid Python-level loops over pixels *and* over
kernel cells: a convolution gathers every window of a padded NCHW sample
with one strided copy (:func:`window_view`) and multiplies, a pooling
reduction folds the kernel's rows and then its columns.  At batch 1 the
maps are small, so what the kernels pay for is the number of numpy calls;
everything that depends only on shapes and attributes is worked out once
per distinct geometry and kept in a :class:`BoundedMemo`.

The helpers here support **destination passing**: callers that already own
correctly sized buffers (the planned execution engine's slab views, or a
:class:`Workspace`) pass them via ``out=`` so the steady state allocates
nothing.  With ``out=None`` behaviour is identical to the allocating path.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from numpy.lib.stride_tricks import as_strided


#: Slab and scratch offsets are multiples of this (one cache line).
ALIGNMENT = 64


def aligned_empty(nbytes: int) -> np.ndarray:
    """An uninitialized ``uint8`` buffer whose first byte is 64-byte aligned."""
    raw = np.empty(nbytes + ALIGNMENT, np.uint8)
    lead = -raw.ctypes.data % ALIGNMENT
    return raw[lead:lead + nbytes]


def align_up(nbytes: int) -> int:
    """``nbytes`` rounded up to a multiple of :data:`ALIGNMENT`."""
    return -(-nbytes // ALIGNMENT) * ALIGNMENT


class Workspace:
    """Bump-allocated scratch provider for destination-passing operators.

    ``take(shape, dtype)`` leases an *uninitialized* buffer — a view at the
    next 64-byte-aligned offset of one grow-only byte buffer — and
    ``reset()`` rewinds to offset zero.  Two ``take`` calls between resets
    never overlap, so an operator can safely hold several scratch arrays at
    once.  A ``take`` that does not fit returns a fresh array instead, and
    the next ``reset()`` grows the buffer once to that high-water mark.

    Operators that accept ``workspace=`` reset it before returning, so one
    :class:`Workspace` serves a whole inference loop (the planned execution
    engine owns exactly one) and the scratch of every call lands on the
    same, cache-hot bytes::

        ws = Workspace()
        for batch in batches:
            y = F.conv2d(batch, w, out=y, workspace=ws)   # zero-realloc once warm
    """

    __slots__ = ("_buffer", "_offset", "allocations")

    def __init__(self) -> None:
        self._buffer = aligned_empty(0)
        self._offset = 0
        #: buffers obtained from numpy (overflows + growths); flat once warm
        self.allocations = 0

    def take(self, shape: Sequence[int], dtype=np.float32) -> np.ndarray:
        dtype = np.dtype(dtype)
        start = self._offset
        self._offset = start + align_up(math.prod(shape) * dtype.itemsize)
        if self._offset > self._buffer.nbytes:
            self.allocations += 1
            return np.empty(shape, dtype)
        return np.ndarray(shape, dtype, self._buffer, start)

    def reset(self) -> None:
        if self._offset > self._buffer.nbytes:
            self._buffer = aligned_empty(self._offset)
            self.allocations += 1
        self._offset = 0

    def stats(self) -> Dict[str, int]:
        return {"allocations": self.allocations}


def scratch(workspace: Optional[Workspace], shape: Sequence[int],
            dtype=np.float32) -> np.ndarray:
    """A scratch buffer from ``workspace``, or a fresh one when it is None."""
    if workspace is None:
        return np.empty(tuple(int(s) for s in shape), dtype)
    return workspace.take(shape, dtype)


def reset_workspace(workspace: Optional[Workspace]) -> None:
    """Return every leased scratch buffer to ``workspace`` (None-safe)."""
    if workspace is not None:
        workspace.reset()


def pad_nchw(x: np.ndarray, pads: Sequence[int], value: float = 0.0,
             out: Optional[np.ndarray] = None) -> np.ndarray:
    """Pad an NCHW tensor with an ONNX-style ``[top, left, bottom, right]`` spec.

    With ``out=`` the padded tensor is written into the caller-owned buffer
    (which must have the padded shape) instead of allocating via ``np.pad``.
    """
    top, left, bottom, right = pads
    if top == left == bottom == right == 0:
        if out is None:
            return x
        np.copyto(out, x)
        return out
    if out is None:
        return np.pad(
            x,
            ((0, 0), (0, 0), (top, bottom), (left, right)),
            mode="constant",
            constant_values=value,
        )
    n, c, h, w = x.shape
    if out.shape != (n, c, h + top + bottom, w + left + right):
        raise ValueError(
            f"pad_nchw out buffer has shape {out.shape}, expected "
            f"{(n, c, h + top + bottom, w + left + right)}")
    out.fill(value)
    out[:, :, top:top + h, left:left + w] = x
    return out


def conv_output_hw(
    spatial: Tuple[int, int],
    kernel: Tuple[int, int],
    strides: Tuple[int, int],
    pads: Sequence[int],
    dilations: Tuple[int, int] = (1, 1),
) -> Tuple[int, int]:
    """Output spatial size of a convolution/pooling window sweep."""
    h, w = spatial
    kh, kw = kernel
    sh, sw = strides
    dh, dw = dilations
    top, left, bottom, right = (int(p) for p in pads)
    eff_kh = dh * (kh - 1) + 1
    eff_kw = dw * (kw - 1) + 1
    oh = (h + top + bottom - eff_kh) // sh + 1
    ow = (w + left + right - eff_kw) // sw + 1
    if oh <= 0 or ow <= 0:
        raise ValueError(
            f"kernel {kernel} with strides {strides} does not fit input of "
            f"spatial size {(h, w)} (pads {list(pads)})")
    return oh, ow


def window_view(x_p: np.ndarray, window: Tuple[int, int, int, int],
                steps: Tuple[int, int, int, int]) -> np.ndarray:
    """Every kernel window of an already padded ``(..., H, W)`` tensor, as a view.

    ``window`` is ``(KH, KW, OH, OW)`` and ``steps`` is ``(dilation_h,
    dilation_w, stride_h, stride_w)``: element ``[..., i, j, y, z]`` of the
    ``(..., KH, KW, OH, OW)`` result is the input element kernel cell
    ``(i, j)`` touches at output position ``(y, z)``.  The view's strides
    are multiples of ``x_p``'s own, so any layout works and nothing is
    copied: ``np.copyto(cols, view)`` gathers a conv column matrix in one
    call.  Windows overlap in memory, so the view is for reading only.
    """
    *lead, row, col = x_p.strides
    dh, dw, sh, sw = steps
    shape = x_p.shape[:-2] + window
    strides = (*lead, dh * row, dw * col, sh * row, sw * col)
    if x_p.flags.c_contiguous:
        # The usual source (padded scratch, a fresh activation): the array
        # constructor takes it as a buffer at a quarter of as_strided's cost
        # (1 vs 4 us — a fifth of a small convolution's whole call).
        return np.ndarray(shape, x_p.dtype, x_p, 0, strides)
    return as_strided(x_p, shape, strides)


class BoundedMemo(dict):
    """``memo[key]`` is ``build(*key)``, computed on the first lookup only.

    The conv and pooling kernels each keep one at module level for their
    geometry records — everything that depends only on shapes and
    hyper-parameters, as plain python values (no arrays, no buffers), so a
    record is valid for every call with that geometry on any thread and
    has no lifetime to manage.  A ``build`` that raises stores nothing, so
    an invalid key raises on every lookup.  A miss on a memo that already
    holds ``bound`` entries empties it first: a process that streams
    ever-new shapes recomputes, it does not leak (stores racing on several
    threads can overshoot by one entry each).
    """

    def __init__(self, build, bound: int) -> None:
        super().__init__()
        self.build = build
        self.bound = bound

    def __missing__(self, key):
        value = self.build(*key)
        if len(self) >= self.bound:
            self.clear()
        self[key] = value
        return value


def hashable(value):
    """An int-or-int-sequence hyper-parameter as a :class:`BoundedMemo` key part."""
    try:
        return tuple(value)
    except TypeError:
        return value


def normalize_pads(pads: Sequence[int]) -> List[int]:
    """Normalize a 2- or 4-element pad spec to ``[top, left, bottom, right]``."""
    pads = [int(p) for p in pads]
    if len(pads) == 2:
        return [pads[0], pads[1], pads[0], pads[1]]
    if len(pads) == 4:
        return pads
    raise ValueError(f"expected 2 or 4 pad values, got {pads}")


def as_pair(value) -> Tuple[int, int]:
    """Coerce an int or length-2 sequence into an ``(int, int)`` pair."""
    if isinstance(value, (list, tuple, np.ndarray)):
        return int(value[0]), int(value[1])
    return int(value), int(value)


def onnx_axis(axis: int, rank: int) -> int:
    """Normalize a possibly negative axis index."""
    if rank == 0:
        return 0
    return axis % rank
