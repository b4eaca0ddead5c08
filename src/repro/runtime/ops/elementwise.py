"""Binary/unary elementwise arithmetic with numpy broadcasting.

Arithmetic functions accept an optional ``out=`` destination so callers that
already own a correctly shaped/typed buffer — the planned execution engine's
slab views (:mod:`repro.runtime.plan`) — can run allocation-free.  ``out``
must match the result's shape and dtype exactly; with ``out=None`` behaviour
is identical to the plain numpy call.
"""

from __future__ import annotations

from typing import Optional

import numpy as np


def add(a: np.ndarray, b: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Elementwise addition."""
    return np.add(a, b, out=out)


def sub(a: np.ndarray, b: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Elementwise subtraction."""
    return np.subtract(a, b, out=out)


def mul(a: np.ndarray, b: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Elementwise multiplication."""
    return np.multiply(a, b, out=out)


def div(a: np.ndarray, b: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Elementwise division."""
    return np.divide(a, b, out=out)


def pow_(a: np.ndarray, b: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Elementwise power."""
    return np.power(a, b, out=out)


def mod(a: np.ndarray, b: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Elementwise modulo."""
    return np.mod(a, b, out=out)


def minimum(a: np.ndarray, b: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Elementwise minimum."""
    return np.minimum(a, b, out=out)


def maximum(a: np.ndarray, b: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Elementwise maximum."""
    return np.maximum(a, b, out=out)


def sqrt(x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Elementwise square root."""
    return np.sqrt(np.asarray(x, dtype=np.float32), out=out)


def exp(x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Elementwise exponential."""
    return np.exp(np.asarray(x, dtype=np.float32), out=out)


def log(x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Elementwise natural logarithm."""
    return np.log(np.asarray(x, dtype=np.float32), out=out)


def neg(x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Elementwise negation."""
    return np.negative(x, out=out)


def abs_(x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Elementwise absolute value."""
    return np.abs(x, out=out)


def reciprocal(x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Elementwise reciprocal."""
    return np.reciprocal(np.asarray(x, dtype=np.float32), out=out)


def floor(x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Elementwise floor."""
    return np.floor(x, out=out)


def ceil(x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Elementwise ceiling."""
    return np.ceil(x, out=out)


def round_(x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Elementwise round-half-to-even."""
    return np.round(x, out=out)


def sign(x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Elementwise sign."""
    return np.sign(x, out=out)


def cos(x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Elementwise cosine."""
    return np.cos(x, out=out)


def sin(x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Elementwise sine."""
    return np.sin(x, out=out)


def equal(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise equality comparison."""
    return np.equal(a, b)


def greater(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise greater-than."""
    return np.greater(a, b)


def less(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise less-than."""
    return np.less(a, b)


def greater_or_equal(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise >=."""
    return np.greater_equal(a, b)


def less_or_equal(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise <=."""
    return np.less_equal(a, b)


def logical_and(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise logical and."""
    return np.logical_and(a, b)


def logical_or(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise logical or."""
    return np.logical_or(a, b)


def logical_not(x: np.ndarray) -> np.ndarray:
    """Elementwise logical not."""
    return np.logical_not(x)


def logical_xor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise logical xor."""
    return np.logical_xor(a, b)


def where(cond: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Select ``a`` where ``cond`` else ``b``."""
    return np.where(cond, a, b)
