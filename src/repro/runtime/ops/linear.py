"""Dense linear-algebra operators (MatMul / Gemm / Linear).

All three entry points take an optional ``out=`` destination so the planned
execution engine (and any caller that owns a result buffer) can run them
allocation-free: the product lands in ``out`` via ``np.matmul(..., out=)``
and the epilogue (``alpha`` scale, ``beta * C`` / bias add) is applied in
place.  A destination that is non-contiguous or overlaps an operand is
staged through a temporary so BLAS always sees a clean output buffer and
results are bitwise-identical to the ``out=None`` path.

A 2-D product over a fused batch is not one BLAS call: OpenBLAS gives the
rows of an ``(N, K) @ (K, M)`` product other bits than the ``(1, K) @ (K, M)``
call of one sample, while a stacked ``(N, 1, K) @ (K, M)`` repeats that call
N times.  So ``matmul`` and ``gemm`` take ``sample_rows`` — the product's row
count R at the compiled signature, which ``optimize_model`` records on every
2-D ``MatMul`` / ``Gemm`` — and run ``N * R`` rows as N stacked calls of the
compiled ``(R, K)`` shape, each row bitwise what its request computes
alone.  It never splits finer than R, and R rows stay one call.
"""

from __future__ import annotations

from typing import Optional

import numpy as np


def _per_sample(a: np.ndarray, rows: int) -> np.ndarray:
    """``a`` (N*R, K) as (N, R, K), each sample laid out as its batch-1 operand."""
    samples = a.shape[0] // rows
    if a.flags.c_contiguous or not a.T.flags.c_contiguous:
        return a.reshape(samples, rows, a.shape[1])
    # A transposed operand (``Gemm`` transA): its batch-1 call reads the
    # transpose of a contiguous (K, R) block, so give each sample one.
    blocks = a.T.reshape(a.shape[1], samples, rows).transpose(1, 0, 2)
    return np.ascontiguousarray(blocks).transpose(0, 2, 1)


def _staged(out: np.ndarray, result: np.ndarray) -> np.ndarray:
    if out.shape != result.shape or out.dtype != result.dtype:
        raise ValueError(
            f"matmul out buffer has shape {out.shape}/{out.dtype}, "
            f"expected {result.shape}/{result.dtype}")
    np.copyto(out, result)
    return out


def _product(a: np.ndarray, b: np.ndarray,
             out: Optional[np.ndarray]) -> np.ndarray:
    if out is None:
        return np.matmul(a, b)
    if (not out.flags.c_contiguous
            or np.may_share_memory(out, a)
            or np.may_share_memory(out, b)):
        return _staged(out, np.matmul(a, b))
    return np.matmul(a, b, out=out)


def _matmul_into(a: np.ndarray, b: np.ndarray, out: Optional[np.ndarray],
                 sample_rows: Optional[int] = None) -> np.ndarray:
    if not (sample_rows and a.ndim == 2 and b.ndim == 2
            and a.shape[0] != sample_rows and a.shape[0] % sample_rows == 0):
        return _product(a, b, out)
    shape = (a.shape[0], b.shape[1])
    a = _per_sample(a, sample_rows)
    if out is not None and out.flags.c_contiguous and out.shape == shape:
        _product(a, b, out.reshape(a.shape[0], sample_rows, shape[1]))
        return out
    result = np.matmul(a, b).reshape(shape)
    return result if out is None else _staged(out, result)


def matmul(a: np.ndarray, b: np.ndarray, out: Optional[np.ndarray] = None,
           sample_rows: Optional[int] = None) -> np.ndarray:
    """Batched matrix multiplication with numpy broadcasting semantics."""
    return _matmul_into(np.asarray(a, dtype=np.float32),
                        np.asarray(b, dtype=np.float32), out, sample_rows)


def gemm(
    a: np.ndarray,
    b: np.ndarray,
    c: Optional[np.ndarray] = None,
    alpha: float = 1.0,
    beta: float = 1.0,
    trans_a: bool = False,
    trans_b: bool = False,
    out: Optional[np.ndarray] = None,
    sample_rows: Optional[int] = None,
) -> np.ndarray:
    """ONNX ``Gemm``: ``alpha * A' @ B' + beta * C`` on 2D operands.

    The product is computed straight into the destination and the scale /
    bias epilogue runs in place — no ``alpha * (a @ b)`` temporary, and the
    ``beta == 1`` case (the ONNX default, used throughout the zoo) adds
    ``C`` without one either.  Only ``beta`` outside ``{0, 1}`` scales
    ``C`` into a C-sized temporary, to keep results bitwise-identical to
    the unfused expression.
    """
    a = np.asarray(a, dtype=np.float32)
    b = np.asarray(b, dtype=np.float32)
    if trans_a:
        a = a.T
    if trans_b:
        b = b.T
    if c is not None and beta != 0.0:
        c = np.asarray(c, dtype=np.float32)
        if out is not None and np.may_share_memory(out, c):
            # The product would overwrite C before the epilogue reads it.
            c = c.copy()
    result = _matmul_into(a, b, out, sample_rows)
    if alpha != 1.0:
        np.multiply(result, np.float32(alpha), out=result)
    if c is not None and beta != 0.0:
        if beta == 1.0:
            np.add(result, c, out=result)
        else:
            np.add(result, c * np.float32(beta), out=result)
    return result


def linear(x: np.ndarray, weight: np.ndarray,
           bias: Optional[np.ndarray] = None,
           out: Optional[np.ndarray] = None) -> np.ndarray:
    """Dense layer ``x @ W + b`` where W has shape (in_features, out_features).

    The bias broadcast-adds in place on the product buffer instead of
    allocating a second output.
    """
    if bias is not None:
        bias = np.asarray(bias, dtype=np.float32)
        if out is not None and np.may_share_memory(out, bias):
            bias = bias.copy()  # the product would overwrite it first
    result = _matmul_into(np.asarray(x, dtype=np.float32),
                          np.asarray(weight, dtype=np.float32), out)
    if bias is not None:
        np.add(result, bias, out=result)
    return result


def einsum(equation: str, *operands: np.ndarray) -> np.ndarray:
    """Thin wrapper over :func:`numpy.einsum` (float32 result)."""
    return np.einsum(equation, *[np.asarray(o, dtype=np.float32) for o in operands])
