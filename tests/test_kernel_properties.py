"""Property-based tests (hypothesis) for the conv / pooling / BatchNorm kernels.

``conv2d``, ``max_pool2d`` and ``avg_pool2d`` are checked against naive
per-output-position float64 loops that share no code with the runtime, over
random batch / channel / spatial sizes, kernels (incl. ``1 x k`` and
``k x 1``), strides, pads, dilations, groups (incl. depthwise with a channel
multiplier and ``1 < group < C``), ``ceil_mode`` and ``count_include_pad``.
The float32 kernels sum in a different order than the float64 reference, so
those comparisons use a tolerance fixed from the dtype; the structural
properties are exact:

* a non-depthwise convolution is bitwise equal to the per-tap column fill
  it replaced (:func:`per_tap_conv2d`, kept here as the oracle): the single
  strided gather builds the same column matrix for the same GEMMs,
* ``out=`` / ``workspace=`` calls are bitwise equal to the allocating call,
* a destination that aliases the input still gives the right answer,
* NaN propagates through max-pool to exactly the windows that contain it,
* row *i* of a batch-N call is bitwise equal to the batch-1 call on row *i*.
"""

from __future__ import annotations

import hypothesis.strategies as st
import numpy as np
from hypothesis import assume, given, settings

import repro.runtime.functional as F
from repro.runtime.tensor_utils import Workspace

#: float32 has ~7 significant digits; the longest reduction here has
#: 4 * 3 * 3 = 36 unit-normal products, so 1e-4 leaves two digits of slack.
TOL = dict(rtol=1e-4, atol=1e-4)

SETTINGS = settings(max_examples=60, deadline=None)

small = st.integers(min_value=1, max_value=3)


@st.composite
def window_geometry(draw, dilated: bool):
    """(spatial, kernel, strides, pads, dilations) with at least one output."""
    kernel = (draw(small), draw(small))
    strides = (draw(small), draw(small))
    dilations = (draw(st.integers(1, 2)), draw(st.integers(1, 2))) if dilated else (1, 1)
    # ONNX requires every pad to be smaller than the kernel extent.
    pads = [draw(st.integers(0, kernel[i % 2] - 1)) for i in range(4)]
    spatial = (draw(st.integers(1, 9)), draw(st.integers(1, 9)))
    for axis in (0, 1):
        extent = dilations[axis] * (kernel[axis] - 1) + 1
        assume(spatial[axis] + pads[axis] + pads[axis + 2] >= extent)
    return spatial, kernel, strides, pads, dilations


@st.composite
def conv_cases(draw):
    spatial, kernel, strides, pads, dilations = draw(window_geometry(dilated=True))
    group = draw(st.integers(1, 4))
    c_per_group = draw(st.sampled_from([1, 1, 2, 4]))  # 1 -> depthwise when group > 1
    m_per_group = draw(small)
    n = draw(small)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.standard_normal((n, group * c_per_group) + spatial).astype(np.float32)
    w = rng.standard_normal((group * m_per_group, c_per_group) + kernel).astype(np.float32)
    b = None
    if draw(st.booleans()):
        b = rng.standard_normal(group * m_per_group).astype(np.float32)
    return x, w, b, dict(strides=strides, pads=pads, dilations=dilations, group=group)


@st.composite
def separable_geometry(draw):
    """Windows up to 7 long with one side often 1: each fold stage empty or not."""
    kernel = (draw(st.sampled_from([1, 1, 2, 5, 7])), draw(st.sampled_from([1, 1, 3, 4, 7])))
    strides = (draw(small), draw(small))
    pads = [draw(st.integers(0, kernel[i % 2] - 1)) for i in range(4)]
    spatial = tuple(draw(st.integers(max(1, kernel[axis] - pads[axis] - pads[axis + 2]), 12))
                    for axis in (0, 1))
    return spatial, kernel, strides, pads, (1, 1)


@st.composite
def pool_cases(draw):
    spatial, kernel, strides, pads, _ = draw(
        st.one_of(window_geometry(dilated=False), separable_geometry()))
    n, c = draw(small), draw(small)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.standard_normal((n, c) + spatial).astype(np.float32)
    return x, dict(kernel=kernel, strides=strides, pads=pads,
                   ceil_mode=draw(st.booleans()))


@st.composite
def shape_preserving_cases(draw):
    """Odd kernel, stride 1, 'same' padding: the output has the input's shape."""
    kernel = (draw(st.sampled_from([1, 3])), draw(st.sampled_from([1, 3])))
    pads = [kernel[0] // 2, kernel[1] // 2] * 2
    n, c = draw(small), draw(st.sampled_from([1, 2, 4]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spatial = (draw(st.integers(1, 7)), draw(st.integers(1, 7)))
    x = rng.standard_normal((n, c) + spatial).astype(np.float32)
    return x, kernel, pads, rng


# ---------------------------------------------------------------------------
# Naive float64 references: one Python loop iteration per output element.
# ---------------------------------------------------------------------------
def naive_conv2d(x, w, b, strides, pads, dilations, group):
    n, c, h, wd = x.shape
    m, c_per_group, kh, kw = w.shape
    (sh, sw), (dh, dw) = strides, dilations
    top, left, bottom, right = pads
    x_p = np.zeros((n, c, h + top + bottom, wd + left + right), dtype=np.float64)
    x_p[:, :, top:top + h, left:left + wd] = x
    eh, ew = dh * (kh - 1) + 1, dw * (kw - 1) + 1
    oh = (x_p.shape[2] - eh) // sh + 1
    ow = (x_p.shape[3] - ew) // sw + 1
    out = np.empty((n, m, oh, ow), dtype=np.float64)
    w64 = w.astype(np.float64)
    for i, o, y, z in np.ndindex(*out.shape):
        g = o // (m // group)
        patch = x_p[i, g * c_per_group:(g + 1) * c_per_group,
                    y * sh:y * sh + eh:dh, z * sw:z * sw + ew:dw]
        out[i, o, y, z] = (patch * w64[o]).sum()
    if b is not None:
        out += b.astype(np.float64).reshape(1, -1, 1, 1)
    return out


def per_tap_conv2d(x, w, b, strides, pads, dilations, group):
    """The column fill this runtime used before the strided gather: one slice
    copy per kernel tap, then the same per-(sample, group) float32 GEMMs."""
    n, c, h, wd = x.shape
    m, c_per_group, kh, kw = w.shape
    (sh, sw), (dh, dw) = strides, dilations
    top, left, bottom, right = pads
    x_p = np.zeros((n, c, h + top + bottom, wd + left + right), dtype=np.float32)
    x_p[:, :, top:top + h, left:left + wd] = x
    oh = (x_p.shape[2] - dh * (kh - 1) - 1) // sh + 1
    ow = (x_p.shape[3] - dw * (kw - 1) - 1) // sw + 1
    out = np.empty((n, m, oh, ow), dtype=np.float32)
    w_mat = w.reshape(m, -1)
    m_per_group, k_per_group = m // group, c_per_group * kh * kw
    cols4 = np.empty((c, kh * kw, oh, ow), dtype=np.float32)
    cols = cols4.reshape(c * kh * kw, oh * ow)
    for i in range(n):
        for t, (ki, kj) in enumerate(np.ndindex(kh, kw)):
            np.copyto(cols4[:, t], x_p[i, :, ki * dh:ki * dh + (oh - 1) * sh + 1:sh,
                                       kj * dw:kj * dw + (ow - 1) * sw + 1:sw])
        for g in range(group):
            rows = slice(g * m_per_group, (g + 1) * m_per_group)
            np.matmul(w_mat[rows], cols[g * k_per_group:(g + 1) * k_per_group],
                      out=out[i, rows].reshape(m_per_group, oh * ow))
    if b is not None:
        np.add(out, b.reshape(1, -1, 1, 1), out=out)
    return out


def naive_pool(x, kernel, strides, pads, ceil_mode, reduce):
    """``reduce`` over the in-bounds elements of every window (an empty array
    when ceil mode hangs a window wholly past the edge, which this runtime
    keeps as an output position)."""
    n, c, h, w = x.shape
    (kh, kw), (sh, sw) = kernel, strides
    top, left, bottom, right = pads
    span_h, span_w = h + top + bottom - kh, w + left + right - kw
    oh = (-(-span_h // sh) if ceil_mode else span_h // sh) + 1
    ow = (-(-span_w // sw) if ceil_mode else span_w // sw) + 1
    out = np.empty((n, c, oh, ow), dtype=np.float64)
    for i, ch, y, z in np.ndindex(*out.shape):
        y0, z0 = y * sh - top, z * sw - left
        out[i, ch, y, z] = reduce(x[i, ch, max(y0, 0):max(y0 + kh, 0),
                                    max(z0, 0):max(z0 + kw, 0)].astype(np.float64))
    return out


def naive_max(values):
    return values.max() if values.size else -np.inf


# ---------------------------------------------------------------------------
# Against the references
# ---------------------------------------------------------------------------
@SETTINGS
@given(conv_cases())
def test_conv2d_matches_naive_reference(case):
    x, w, b, kwargs = case
    got = F.conv2d(x, w, b, **kwargs)
    assert got.dtype == np.float32
    np.testing.assert_allclose(got, naive_conv2d(x, w, b, **kwargs), **TOL)


@SETTINGS
@given(pool_cases())
def test_max_pool2d_matches_naive_reference(case):
    x, kwargs = case
    expected = naive_pool(x, reduce=naive_max, **kwargs)
    np.testing.assert_array_equal(F.max_pool2d(x, **kwargs), expected)


@SETTINGS
@given(pool_cases(), st.booleans())
def test_avg_pool2d_matches_naive_reference(case, count_include_pad):
    x, kwargs = case
    kh, kw = kwargs["kernel"]

    def mean(values):
        return values.sum() / (kh * kw if count_include_pad else max(values.size, 1))

    got = F.avg_pool2d(x, count_include_pad=count_include_pad, **kwargs)
    np.testing.assert_allclose(got, naive_pool(x, reduce=mean, **kwargs), **TOL)


# ---------------------------------------------------------------------------
# Exact properties
# ---------------------------------------------------------------------------
def _non_contiguous(x, layout):
    """A view holding ``x``'s values with strides foreign to a fresh array."""
    if layout == "interleaved":
        wide = np.zeros(x.shape[:-1] + (2 * x.shape[-1],), dtype=x.dtype)
        wide[..., ::2] = x
        return wide[..., ::2]
    if layout == "transposed":
        return np.ascontiguousarray(x.transpose(0, 1, 3, 2)).transpose(0, 1, 3, 2)
    return x


@SETTINGS
@given(conv_cases(), st.sampled_from(["contiguous", "interleaved", "transposed"]))
def test_non_depthwise_conv2d_is_bitwise_the_per_tap_column_fill(case, layout):
    x, w, b, kwargs = case
    assume(not (w.shape[1] == 1 and kwargs["group"] > 1))
    expected = per_tap_conv2d(x, w, b, **kwargs)
    view = _non_contiguous(x, layout)
    np.testing.assert_array_equal(F.conv2d(view, w, b, **kwargs), expected)
    out = np.full_like(expected, np.nan)
    np.testing.assert_array_equal(
        F.conv2d(view, w, b, out=out, workspace=Workspace(), **kwargs), expected)
    if expected.shape == x.shape:  # the destination may be the input itself
        aliased = view.copy() if layout == "contiguous" else view
        assert F.conv2d(aliased, w, b, out=aliased, workspace=Workspace(),
                        **kwargs) is aliased
        np.testing.assert_array_equal(aliased, expected)


def _check_destination_and_batch_invariance(x, fn):
    """``fn(x, out=None, workspace=None)`` is one kernel over one drawn case."""
    expected = fn(x)
    ws = Workspace()
    out = np.full_like(expected, np.nan)
    assert fn(x, out=out, workspace=ws) is out
    np.testing.assert_array_equal(out, expected)
    cold = ws.stats()["allocations"]
    out.fill(np.nan)
    np.testing.assert_array_equal(fn(x, out=out, workspace=ws), expected)
    assert ws.stats()["allocations"] == cold  # warm: every scratch is reused
    strided = np.full(expected.shape + (2,), np.nan, dtype=np.float32)[..., 0]
    np.testing.assert_array_equal(fn(x, out=strided, workspace=ws), expected)
    for i in range(x.shape[0]):
        np.testing.assert_array_equal(fn(x[i:i + 1])[0], expected[i])


@SETTINGS
@given(conv_cases())
def test_conv2d_destination_passing_and_batch_rows_are_bitwise(case):
    x, w, b, kwargs = case
    _check_destination_and_batch_invariance(
        x, lambda x, **dest: F.conv2d(x, w, b, **kwargs, **dest))


@SETTINGS
@given(pool_cases(), st.booleans())
def test_pooling_destination_passing_and_batch_rows_are_bitwise(case, include):
    x, kwargs = case
    _check_destination_and_batch_invariance(
        x, lambda x, **dest: F.max_pool2d(x, **kwargs, **dest))
    _check_destination_and_batch_invariance(
        x, lambda x, **dest: F.avg_pool2d(x, count_include_pad=include,
                                          **kwargs, **dest))


@SETTINGS
@given(st.lists(st.integers(1, 5), min_size=1, max_size=4), st.integers(0, 2**32 - 1))
def test_batch_norm_destination_passing_and_batch_rows_are_bitwise(shape, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(shape).astype(np.float32)
    per_channel = (-1,) + (1,) * max(x.ndim - 2, 0)  # channels: axis 1, or 0 of a vector
    scale, bias, mean, var = (rng.standard_normal(x.shape[x.ndim > 1]).astype(np.float32)
                              for _ in range(4))
    np.abs(var, out=var)

    def fn(x, out=None, workspace=None):
        return F.batch_norm(x, scale, bias, mean, var, epsilon=1e-3, out=out)

    expected = fn(x)
    assert expected.dtype == np.float32
    s64, b64, m64, v64 = (p.astype(np.float64).reshape(per_channel)
                          for p in (scale, bias, mean, var))
    np.testing.assert_allclose(expected, (x - m64) / np.sqrt(v64 + 1e-3) * s64 + b64, **TOL)
    if x.ndim > 1:
        _check_destination_and_batch_invariance(x, fn)
    aliased = x.copy()
    assert fn(aliased, out=aliased) is aliased
    np.testing.assert_array_equal(aliased, expected)


@SETTINGS
@given(shape_preserving_cases(), st.sampled_from(["full", "depthwise"]))
def test_out_aliasing_input_is_still_correct(case, group_kind):
    x, kernel, pads, rng = case
    c = x.shape[1]
    group = c if group_kind == "depthwise" else 1
    w = rng.standard_normal((c, c // group) + kernel).astype(np.float32)
    for fn in (lambda x, **d: F.conv2d(x, w, pads=pads, group=group, **d),
               lambda x, **d: F.max_pool2d(x, kernel=kernel, pads=pads, **d),
               lambda x, **d: F.avg_pool2d(x, kernel=kernel, pads=pads, **d)):
        expected = fn(x)
        aliased = x.copy()
        assert fn(aliased, out=aliased, workspace=Workspace()) is aliased
        np.testing.assert_array_equal(aliased, expected)


@SETTINGS
@given(pool_cases(), st.data())
def test_nan_propagates_through_max_pool(case, data):
    x, kwargs = case
    position = tuple(data.draw(st.integers(0, size - 1)) for size in x.shape)
    x[position] = np.nan
    expected = naive_pool(x, reduce=naive_max, **kwargs)
    got = F.max_pool2d(x, **kwargs)
    np.testing.assert_array_equal(np.isnan(got), np.isnan(expected))
    np.testing.assert_array_equal(got, expected)  # NaN == NaN here
