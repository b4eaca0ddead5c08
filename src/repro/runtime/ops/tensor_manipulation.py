"""Data-movement operators: concat, split, slice, gather, reshape, transpose…"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.runtime.tensor_utils import onnx_axis


def concat(tensors: Sequence[np.ndarray], axis: int = 0,
           out: Optional[np.ndarray] = None) -> np.ndarray:
    """Concatenate tensors along an axis, optionally into ``out``."""
    tensors = [np.asarray(t) for t in tensors]
    return np.concatenate(tensors, axis=onnx_axis(axis, tensors[0].ndim),
                          out=out)


def split(x: np.ndarray, parts: Optional[int] = None, sizes: Optional[Sequence[int]] = None,
          axis: int = 0) -> List[np.ndarray]:
    """Split a tensor into equal ``parts`` or into explicit ``sizes`` along ``axis``."""
    x = np.asarray(x)
    axis = onnx_axis(axis, x.ndim)
    if sizes is not None:
        indices = np.cumsum(sizes)[:-1]
        return [np.ascontiguousarray(part) for part in np.split(x, indices, axis=axis)]
    if parts is None:
        raise ValueError("split requires either parts or sizes")
    return [np.ascontiguousarray(part) for part in np.split(x, parts, axis=axis)]


def reshape(x: np.ndarray, shape: Sequence[int]) -> np.ndarray:
    """Reshape with ONNX semantics: 0 copies the input dim, -1 infers."""
    x = np.asarray(x)
    shape = [int(s) for s in np.atleast_1d(np.asarray(shape))]
    resolved = [x.shape[i] if s == 0 and i < x.ndim else s for i, s in enumerate(shape)]
    return x.reshape(resolved)


def transpose(x: np.ndarray, perm: Optional[Sequence[int]] = None) -> np.ndarray:
    """Permute dimensions (reversed order when ``perm`` is omitted)."""
    return np.transpose(np.asarray(x), axes=perm)


def flatten(x: np.ndarray, axis: int = 1) -> np.ndarray:
    """Flatten into a 2D tensor splitting the dims at ``axis``."""
    x = np.asarray(x)
    axis = axis % (x.ndim + 1)
    head = int(np.prod(x.shape[:axis])) if axis > 0 else 1
    return x.reshape(head, -1)


def squeeze(x: np.ndarray, axes: Optional[Sequence[int]] = None) -> np.ndarray:
    """Remove size-1 dimensions (all of them, or the listed axes)."""
    x = np.asarray(x)
    if axes is None:
        return np.squeeze(x)
    axes = tuple(onnx_axis(int(a), x.ndim) for a in np.atleast_1d(axes))
    return np.squeeze(x, axis=axes)


def unsqueeze(x: np.ndarray, axes: Sequence[int]) -> np.ndarray:
    """Insert size-1 dimensions at the listed axes."""
    x = np.asarray(x)
    axes = [int(a) for a in np.atleast_1d(axes)]
    out_rank = x.ndim + len(axes)
    for a in sorted(onnx_axis(a, out_rank) for a in axes):
        x = np.expand_dims(x, axis=a)
    return x


def slice_(x: np.ndarray, starts: Sequence[int], ends: Sequence[int],
           axes: Optional[Sequence[int]] = None,
           steps: Optional[Sequence[int]] = None) -> np.ndarray:
    """ONNX ``Slice``: per-axis ``[start:end:step]`` with clamping."""
    x = np.asarray(x)
    starts = [int(s) for s in np.atleast_1d(np.asarray(starts))]
    ends = [int(e) for e in np.atleast_1d(np.asarray(ends))]
    axes = list(range(len(starts))) if axes is None else [int(a) for a in np.atleast_1d(np.asarray(axes))]
    steps = [1] * len(starts) if steps is None else [int(s) for s in np.atleast_1d(np.asarray(steps))]
    slices = [slice(None)] * x.ndim
    for start, end, axis, step in zip(starts, ends, axes, steps):
        axis = onnx_axis(axis, x.ndim)
        # ONNX uses INT64_MAX-ish sentinels for "to the end".
        if end > 2**31:
            end = x.shape[axis]
        if end < -(2**31):
            end = -x.shape[axis] - 1
        slices[axis] = slice(start, end, step)
    return np.ascontiguousarray(x[tuple(slices)])


def gather(data: np.ndarray, indices: np.ndarray, axis: int = 0) -> np.ndarray:
    """ONNX ``Gather``: index ``data`` along ``axis`` with an integer tensor."""
    data = np.asarray(data)
    indices = np.asarray(indices, dtype=np.int64)
    return np.take(data, indices, axis=onnx_axis(axis, data.ndim))


def gather_elements(data: np.ndarray, indices: np.ndarray, axis: int = 0) -> np.ndarray:
    """ONNX ``GatherElements``: elementwise gather along an axis."""
    data = np.asarray(data)
    indices = np.asarray(indices, dtype=np.int64)
    return np.take_along_axis(data, indices, axis=onnx_axis(axis, data.ndim))


def expand(x: np.ndarray, shape: Sequence[int]) -> np.ndarray:
    """Broadcast a tensor to a target shape (ONNX ``Expand``)."""
    x = np.asarray(x)
    target = [int(s) for s in np.atleast_1d(np.asarray(shape))]
    # ONNX allows target dims of 1 to mean "keep the input dim".
    rank = max(x.ndim, len(target))
    in_shape = (1,) * (rank - x.ndim) + x.shape
    target = [1] * (rank - len(target)) + list(target)
    out_shape = [max(i, t) for i, t in zip(in_shape, target)]
    return np.broadcast_to(x.reshape(in_shape), out_shape).copy()


def tile(x: np.ndarray, repeats: Sequence[int]) -> np.ndarray:
    """Repeat a tensor along each axis."""
    return np.tile(np.asarray(x), [int(r) for r in np.atleast_1d(np.asarray(repeats))])


def pad(x: np.ndarray, pads: Sequence[int], mode: str = "constant",
        value: float = 0.0) -> np.ndarray:
    """ONNX ``Pad``: ``pads`` lists the before-padding per axis then the after-padding."""
    x = np.asarray(x)
    pads = [int(p) for p in np.atleast_1d(np.asarray(pads))]
    half = len(pads) // 2
    pad_width = list(zip(pads[:half], pads[half:]))
    np_mode = {"constant": "constant", "reflect": "reflect", "edge": "edge"}[mode]
    if np_mode == "constant":
        return np.pad(x, pad_width, mode="constant",
                      constant_values=float(np.asarray(value).reshape(())))
    return np.pad(x, pad_width, mode=np_mode)


def resize_nearest(x: np.ndarray, scales: Sequence[float]) -> np.ndarray:
    """Nearest-neighbour resize of an NCHW tensor by per-axis scale factors."""
    x = np.asarray(x)
    scales = [float(s) for s in scales]
    if x.ndim != 4 or len(scales) != 4:
        raise ValueError("resize_nearest expects a 4D tensor and 4 scales")
    out_h = int(round(x.shape[2] * scales[2]))
    out_w = int(round(x.shape[3] * scales[3]))
    rows = np.minimum((np.arange(out_h) / scales[2]).astype(np.int64), x.shape[2] - 1)
    cols = np.minimum((np.arange(out_w) / scales[3]).astype(np.int64), x.shape[3] - 1)
    return np.ascontiguousarray(x[:, :, rows[:, None], cols[None, :]])


def depth_to_space(x: np.ndarray, blocksize: int, mode: str = "DCR") -> np.ndarray:
    """Rearrange channel blocks into spatial positions."""
    n, c, h, w = x.shape
    b = int(blocksize)
    if mode == "DCR":
        y = x.reshape(n, b, b, c // (b * b), h, w)
        y = y.transpose(0, 3, 4, 1, 5, 2)
    else:  # CRD
        y = x.reshape(n, c // (b * b), b, b, h, w)
        y = y.transpose(0, 1, 4, 2, 5, 3)
    return np.ascontiguousarray(y.reshape(n, c // (b * b), h * b, w * b))


def space_to_depth(x: np.ndarray, blocksize: int) -> np.ndarray:
    """Rearrange spatial blocks into channels (Yolo ``Focus`` layer idiom)."""
    n, c, h, w = x.shape
    b = int(blocksize)
    y = x.reshape(n, c, h // b, b, w // b, b)
    y = y.transpose(0, 3, 5, 1, 2, 4)
    return np.ascontiguousarray(y.reshape(n, c * b * b, h // b, w // b))


def cast(x: np.ndarray, to: str = "float32") -> np.ndarray:
    """Cast to another element type (dtype name string)."""
    return np.asarray(x).astype(to)


def shape_of(x: np.ndarray) -> np.ndarray:
    """Return the shape of a tensor as an int64 vector (ONNX ``Shape``)."""
    return np.asarray(np.asarray(x).shape, dtype=np.int64)


def size_of(x: np.ndarray) -> np.ndarray:
    """Total element count as an int64 scalar."""
    return np.asarray(np.asarray(x).size, dtype=np.int64)


def constant_of_shape(shape: Sequence[int], value: float = 0.0) -> np.ndarray:
    """Create a filled tensor of the given shape."""
    value_arr = np.asarray(value)
    return np.full([int(s) for s in np.atleast_1d(np.asarray(shape))], value_arr,
                   dtype=value_arr.dtype if value_arr.dtype != np.float64 else np.float32)


def one_hot(indices: np.ndarray, depth: int, values: Sequence[float] = (0.0, 1.0),
            axis: int = -1) -> np.ndarray:
    """One-hot encode integer indices."""
    indices = np.asarray(indices, dtype=np.int64)
    depth = int(np.asarray(depth).reshape(-1)[0])
    off, on = float(values[0]), float(values[1])
    eye = np.full((int(depth),), off, dtype=np.float32)
    out = np.full(indices.shape + (int(depth),), off, dtype=np.float32)
    flat = indices.reshape(-1)
    out_flat = out.reshape(-1, int(depth))
    valid = (flat >= 0) & (flat < int(depth))
    out_flat[np.arange(flat.size)[valid], flat[valid]] = on
    out = out_flat.reshape(indices.shape + (int(depth),))
    if axis != -1:
        out = np.moveaxis(out, -1, axis)
    return out
