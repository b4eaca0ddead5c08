"""Normalization operators (batch / layer / instance norm), inference mode."""

from __future__ import annotations

from typing import Optional

import numpy as np


def batch_norm(
    x: np.ndarray,
    scale: np.ndarray,
    bias: np.ndarray,
    mean: np.ndarray,
    var: np.ndarray,
    epsilon: float = 1e-5,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Inference-mode batch normalization over the channel dimension (NCHW or NC).

    The statistics fold into one per-channel multiplier and offset, so the
    activation is swept twice, in place on ``out`` (which may be ``x``).
    """
    x = np.asarray(x, dtype=np.float32)
    shape = [1] * x.ndim
    shape[1 if x.ndim >= 2 else 0] = -1
    multiplier = (np.asarray(scale, dtype=np.float32)
                  / np.sqrt(np.asarray(var, dtype=np.float32) + epsilon))
    offset = (np.asarray(bias, dtype=np.float32)
              - np.asarray(mean, dtype=np.float32) * multiplier)
    out = np.multiply(x, multiplier.reshape(shape), out=out)
    return np.add(out, offset.reshape(shape), out=out)


def layer_norm(
    x: np.ndarray,
    scale: np.ndarray,
    bias: Optional[np.ndarray] = None,
    axis: int = -1,
    epsilon: float = 1e-5,
) -> np.ndarray:
    """Layer normalization over the trailing dimensions starting at ``axis``."""
    x = np.asarray(x, dtype=np.float32)
    axis = axis % x.ndim
    reduce_axes = tuple(range(axis, x.ndim))
    mean = x.mean(axis=reduce_axes, keepdims=True)
    var = x.var(axis=reduce_axes, keepdims=True)
    normed = (x - mean) / np.sqrt(var + epsilon)
    out = normed * np.asarray(scale, dtype=np.float32)
    if bias is not None:
        out = out + np.asarray(bias, dtype=np.float32)
    return out


def instance_norm(
    x: np.ndarray,
    scale: np.ndarray,
    bias: np.ndarray,
    epsilon: float = 1e-5,
) -> np.ndarray:
    """Instance normalization over spatial dimensions of an NCHW tensor."""
    x = np.asarray(x, dtype=np.float32)
    mean = x.mean(axis=(2, 3), keepdims=True)
    var = x.var(axis=(2, 3), keepdims=True)
    normed = (x - mean) / np.sqrt(var + epsilon)
    scale = np.asarray(scale, dtype=np.float32).reshape(1, -1, 1, 1)
    bias = np.asarray(bias, dtype=np.float32).reshape(1, -1, 1, 1)
    return normed * scale + bias
