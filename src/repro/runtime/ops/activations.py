"""Elementwise activation functions (unit-cost ops in the paper's model)."""

from __future__ import annotations

from typing import Optional

import numpy as np
from scipy import special as _special

from repro.runtime.tensor_utils import reset_workspace, scratch


def relu(x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Rectified linear unit (optionally into a caller-owned ``out`` buffer)."""
    return np.maximum(np.asarray(x), 0, out=out)


def leaky_relu(x: np.ndarray, alpha: float = 0.01) -> np.ndarray:
    """Leaky ReLU with negative-slope ``alpha``."""
    x = np.asarray(x)
    return np.where(x >= 0, x, alpha * x)


def prelu(x: np.ndarray, slope: np.ndarray) -> np.ndarray:
    """Parametric ReLU; ``slope`` broadcasts over the channel dimension."""
    x = np.asarray(x)
    slope = np.asarray(slope)
    if slope.ndim == 1 and x.ndim == 4:
        slope = slope.reshape(1, -1, 1, 1)
    return np.where(x >= 0, x, slope * x)


def sigmoid(x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Numerically stable logistic sigmoid."""
    return _special.expit(np.asarray(x, dtype=np.float32), out=out)


def hard_sigmoid(x: np.ndarray, alpha: float = 0.2, beta: float = 0.5) -> np.ndarray:
    """Piecewise-linear sigmoid approximation."""
    return np.clip(alpha * np.asarray(x) + beta, 0.0, 1.0)


def tanh(x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Hyperbolic tangent."""
    return np.tanh(np.asarray(x), out=out)


#: ``erf(x) ~= x * P(x^2) / Q(x^2)`` on ``[-4, 4]`` (the float32 rational
#: approximation Eigen and XLA use), highest power first.  Both constant
#: terms are negative, so the quotient keeps the sign of a zero.
_ERF_P = tuple(np.float32(c) for c in (
    -2.72614225801306e-10, 2.77068142495902e-08, -2.10102402082508e-06,
    -5.69250639462346e-05, -7.34990630326855e-04, -2.95459980854025e-03,
    -1.60960333262415e-02))
_ERF_Q = tuple(np.float32(c) for c in (
    -1.45660718464996e-05, -2.13374055278905e-04, -1.68282697438203e-03,
    -7.37332916720468e-03, -1.42647390514189e-02))


def _horner(coefficients, x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """The polynomial in ``x`` (highest power first), evaluated in ``out``."""
    out = np.multiply(x, coefficients[0], out=out)
    for coefficient in coefficients[1:-1]:
        np.add(out, coefficient, out=out)
        np.multiply(out, x, out=out)
    return np.add(out, coefficients[-1], out=out)


def erf(x: np.ndarray, out: Optional[np.ndarray] = None, workspace=None) -> np.ndarray:
    """Gauss error function (the core of ONNX-exported GELU).

    Within 5e-7 of the exact value everywhere and within 1e-6 relative
    near zero; odd, ``|erf| <= 1``, ``erf(+-inf) = +-1``, NaN and the sign
    of zero pass through.  ``scipy.special.erf`` is exact to the last bit
    but a scalar loop (17 ns per element: four times these ufunc passes
    on a 64 x 1024 activation); it still serves 0-d input, which has no
    buffer to evaluate in.
    """
    x = np.asarray(x, dtype=np.float32)
    if x.ndim == 0:
        return _special.erf(x, out=out)
    # ``clamped`` is a copy: ``out`` may alias ``x`` from here on.
    clamped = np.clip(x, -4.0, 4.0, out=scratch(workspace, x.shape))
    square = np.multiply(clamped, clamped, out=scratch(workspace, x.shape))
    result = _horner(_ERF_P, square, out=out)
    np.multiply(result, clamped, out=result)
    np.divide(result, _horner(_ERF_Q, square, out=scratch(workspace, x.shape)), out=result)
    reset_workspace(workspace)
    return np.clip(result, -1.0, 1.0, out=result)


def gelu(x: np.ndarray) -> np.ndarray:
    """Gaussian error linear unit (exact formulation)."""
    x = np.asarray(x, dtype=np.float32)
    return 0.5 * x * (1.0 + erf(x / np.sqrt(2.0, dtype=np.float32)))


def silu(x: np.ndarray) -> np.ndarray:
    """SiLU / swish activation (x * sigmoid(x)), used by Yolo V5."""
    x = np.asarray(x, dtype=np.float32)
    return x * sigmoid(x)


def hard_swish(x: np.ndarray) -> np.ndarray:
    """Hard-swish activation."""
    x = np.asarray(x, dtype=np.float32)
    return x * np.clip(x / 6.0 + 0.5, 0.0, 1.0)


def mish(x: np.ndarray) -> np.ndarray:
    """Mish activation: x * tanh(softplus(x))."""
    x = np.asarray(x, dtype=np.float32)
    return x * np.tanh(softplus(x))


def softplus(x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Softplus: log(1 + exp(x)), stabilized."""
    x = np.asarray(x, dtype=np.float32)
    return np.logaddexp(0.0, x, out=out)


def elu(x: np.ndarray, alpha: float = 1.0) -> np.ndarray:
    """Exponential linear unit."""
    x = np.asarray(x, dtype=np.float32)
    return np.where(x >= 0, x, alpha * (np.exp(x) - 1.0))


def selu(x: np.ndarray, alpha: float = 1.6732632, gamma: float = 1.0507010) -> np.ndarray:
    """Scaled exponential linear unit."""
    return gamma * elu(x, alpha)


def clip(x: np.ndarray, min_value: Optional[float] = None,
         max_value: Optional[float] = None,
         out: Optional[np.ndarray] = None) -> np.ndarray:
    """Clamp values into ``[min_value, max_value]`` (either bound optional)."""
    lo = -np.inf if min_value is None else float(np.asarray(min_value).reshape(()))
    hi = np.inf if max_value is None else float(np.asarray(max_value).reshape(()))
    return np.clip(np.asarray(x), lo, hi, out=out)


def softmax(x: np.ndarray, axis: int = -1,
            out: Optional[np.ndarray] = None) -> np.ndarray:
    """Numerically stable softmax along ``axis``.

    The final division can write into a caller-owned ``out`` buffer (the
    same ufunc either way, so results are bitwise-identical with and
    without a destination); the stabilisation intermediates still allocate.
    """
    x = np.asarray(x, dtype=np.float32)
    shifted = x - x.max(axis=axis, keepdims=True)
    exps = np.exp(shifted)
    return np.divide(exps, exps.sum(axis=axis, keepdims=True), out=out)


def log_softmax(x: np.ndarray, axis: int = -1,
                out: Optional[np.ndarray] = None) -> np.ndarray:
    """Log of softmax, computed stably (``out`` as in :func:`softmax`)."""
    x = np.asarray(x, dtype=np.float32)
    shifted = x - x.max(axis=axis, keepdims=True)
    log_sum = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    return np.subtract(shifted, log_sum, out=out)
