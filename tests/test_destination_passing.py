"""Destination-passing (`out=` / `workspace=`) tests for the heavy operators.

Every heavy kernel must produce **bitwise-identical** results with and
without a destination, across edge shapes (1x1 kernels, grouped / dilated /
strided convs), with aliasing destinations (``out`` is an input) and with
non-contiguous destinations.  Workspace reuse across calls must neither
change results nor grow without bound.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.runtime.functional as F
from repro.runtime.tensor_utils import Workspace, pad_nchw


@pytest.fixture()
def rng():
    return np.random.default_rng(20260726)


@pytest.fixture()
def blas_operands(monkeypatch):
    """Record every ``np.matmul`` call and require what BLAS needs: 2-D
    C-contiguous operands and destination (anything else silently takes
    numpy's slow strided fallback, or a buffered copy of the destination)."""
    calls = []
    real = np.matmul

    def checked(a, b, out=None):
        for operand in (a, b, out):
            assert operand is not None and operand.ndim == 2
            assert operand.flags.c_contiguous, operand.strides
        calls.append((a.shape, b.shape))
        return real(a, b, out=out)

    monkeypatch.setattr(np, "matmul", checked)
    return calls


def _check_conv(rng, x_shape, w_shape, ws=None, **kwargs):
    x = rng.standard_normal(x_shape).astype(np.float32)
    w = rng.standard_normal(w_shape).astype(np.float32)
    b = rng.standard_normal(w_shape[0]).astype(np.float32)
    expected = F.conv2d(x, w, b, **kwargs)
    out = np.empty_like(expected)
    got = F.conv2d(x, w, b, out=out, workspace=ws, **kwargs)
    assert got is out
    np.testing.assert_array_equal(got, expected)
    return expected


class TestConvDestinations:
    def test_plain_conv_bitwise(self, rng):
        _check_conv(rng, (2, 3, 10, 10), (6, 3, 3, 3), pads=(1, 1, 1, 1))

    def test_one_by_one_kernel(self, rng):
        _check_conv(rng, (2, 8, 7, 7), (4, 8, 1, 1))

    def test_strided_dilated(self, rng):
        _check_conv(rng, (1, 4, 13, 13), (5, 4, 3, 3),
                    strides=(2, 2), pads=(2, 2, 2, 2), dilations=(2, 2))

    def test_grouped_and_depthwise(self, rng):
        _check_conv(rng, (2, 6, 9, 9), (6, 3, 3, 3), pads=(1, 1, 1, 1), group=2)
        x = rng.standard_normal((1, 5, 8, 8)).astype(np.float32)
        w = rng.standard_normal((5, 1, 3, 3)).astype(np.float32)
        expected = F.depthwise_conv2d(x, w)
        out = np.empty_like(expected)
        np.testing.assert_array_equal(
            F.depthwise_conv2d(x, w, out=out, workspace=Workspace()), expected)

    def test_grouped_strided_dilated_combinations(self, rng):
        for group, strides, dilations in [(2, (1, 1), (2, 2)), (4, (2, 2), (1, 1)),
                                          (2, (2, 1), (1, 2))]:
            _check_conv(rng, (1, 8, 11, 11), (8, 8 // group, 3, 3),
                        pads=(2, 2, 2, 2), group=group, strides=strides,
                        dilations=dilations)

    def test_out_aliasing_input(self, rng):
        """A shape-preserving 1x1 conv may write over its own input."""
        x = rng.standard_normal((2, 4, 6, 6)).astype(np.float32)
        w = rng.standard_normal((4, 4, 1, 1)).astype(np.float32)
        expected = F.conv2d(x.copy(), w)
        got = F.conv2d(x, w, out=x, workspace=Workspace())
        assert got is x
        np.testing.assert_array_equal(got, expected)

    def test_non_contiguous_out(self, rng):
        x = rng.standard_normal((1, 3, 8, 8)).astype(np.float32)
        w = rng.standard_normal((4, 3, 3, 3)).astype(np.float32)
        expected = F.conv2d(x, w, pads=(1, 1, 1, 1))
        wide = np.zeros((1, 8, 8, 8), dtype=np.float32)
        out = wide[:, ::2]  # non-contiguous channel-strided destination
        got = F.conv2d(x, w, pads=(1, 1, 1, 1), out=out, workspace=Workspace())
        np.testing.assert_array_equal(got, expected)
        np.testing.assert_array_equal(wide[:, 1::2], 0.0)

    def test_pointwise_conv_on_non_contiguous_input(self, rng, blas_operands):
        """The 1x1 fast path views each sample as (C, H*W) for free.  An alias
        op's view that is strided *within* a sample cannot be: it must take
        the strided gather into the column matrix (one lease from the
        workspace, whatever the batch size), never a hidden reshape copy or
        a strided GEMM operand.  A channel slice of a batch is only strided
        across samples and may stay on the fast path."""
        wide = rng.standard_normal((2, 8, 6, 10)).astype(np.float32)
        w = rng.standard_normal((5, 4, 1, 1)).astype(np.float32)
        for view, gathered in ((wide[:, 2:6], 0),
                               (wide[:, :4, :, ::2], 1),
                               (wide[:, 4:].transpose(0, 1, 3, 2), 1)):
            assert not view.flags.c_contiguous
            expected = F.conv2d(np.ascontiguousarray(view), w)
            ws = Workspace()
            got = F.conv2d(view, w, out=np.empty_like(expected), workspace=ws)
            np.testing.assert_array_equal(got, expected)
            # a cold workspace obtains two buffers per lease: the fresh
            # array the overflowing take returns, and the growth at reset
            assert ws.stats()["allocations"] == 2 * gathered
        assert len(blas_operands) == 2 * 2 * 3  # every GEMM above was checked

    def test_grouped_conv_never_hands_matmul_a_batch_strided_out(self, rng, blas_operands):
        """A group's rows of the NCHW destination are strided across the
        batch, so a batched grouped conv runs one GEMM per (sample, group)."""
        x = rng.standard_normal((3, 6, 7, 7)).astype(np.float32)
        w = rng.standard_normal((4, 3, 3, 3)).astype(np.float32)
        out = np.empty((3, 4, 7, 7), dtype=np.float32)
        F.conv2d(x, w, pads=(1, 1, 1, 1), group=2, out=out, workspace=Workspace())
        assert len(blas_operands) == 3 * 2
        for i in range(3):
            np.testing.assert_array_equal(
                out[i], F.conv2d(x[i:i + 1], w, pads=(1, 1, 1, 1), group=2)[0])
        halves = [F.conv2d(x[:, g * 3:(g + 1) * 3], w[g * 2:(g + 1) * 2],
                           pads=(1, 1, 1, 1)) for g in range(2)]
        np.testing.assert_array_equal(out, np.concatenate(halves, axis=1))

    def test_bad_out_shape_raises(self, rng):
        x = rng.standard_normal((1, 3, 8, 8)).astype(np.float32)
        w = rng.standard_normal((4, 3, 3, 3)).astype(np.float32)
        with pytest.raises(ValueError, match="out buffer"):
            F.conv2d(x, w, out=np.empty((1, 4, 3, 3), dtype=np.float32))

    def test_workspace_reuse_across_shapes_is_stable(self, rng):
        """One workspace serving several distinct convs stays bitwise-correct
        and reaches a steady state where no further buffers are allocated."""
        ws = Workspace()
        _check_conv(rng, (2, 3, 10, 10), (6, 3, 3, 3), ws=ws, pads=(1, 1, 1, 1))
        _check_conv(rng, (1, 4, 13, 13), (5, 4, 3, 3), ws=ws,
                    strides=(2, 2), pads=(2, 2, 2, 2), dilations=(2, 2))
        warm = ws.stats()["allocations"]
        for _ in range(3):
            _check_conv(rng, (2, 3, 10, 10), (6, 3, 3, 3), ws=ws, pads=(1, 1, 1, 1))
        assert ws.stats()["allocations"] == warm

    def test_conv_transpose_out_and_inplace_bias(self, rng):
        x = rng.standard_normal((1, 2, 5, 5)).astype(np.float32)
        w = rng.standard_normal((2, 3, 2, 2)).astype(np.float32)
        b = rng.standard_normal(3).astype(np.float32)
        expected = F.conv_transpose2d(x, w, b, strides=(2, 2))
        out = np.empty_like(expected)
        got = F.conv_transpose2d(x, w, b, strides=(2, 2), out=out,
                                 workspace=Workspace())
        assert got is out
        np.testing.assert_array_equal(got, expected)
        # bias must match the no-bias result plus a broadcast add, bitwise
        plain = F.conv_transpose2d(x, w, strides=(2, 2))
        np.testing.assert_array_equal(expected, plain + b.reshape(1, -1, 1, 1))


class TestLinearDestinations:
    def test_matmul_out_bitwise(self, rng):
        a = rng.standard_normal((5, 7)).astype(np.float32)
        b = rng.standard_normal((7, 3)).astype(np.float32)
        expected = F.matmul(a, b)
        out = np.empty_like(expected)
        assert F.matmul(a, b, out=out) is out
        np.testing.assert_array_equal(out, expected)

    def test_matmul_out_aliases_operand(self, rng):
        a = rng.standard_normal((4, 4)).astype(np.float32)
        b = rng.standard_normal((4, 4)).astype(np.float32)
        expected = F.matmul(a.copy(), b)
        np.testing.assert_array_equal(F.matmul(a, b, out=a), expected)

    def test_matmul_non_contiguous_out(self, rng):
        a = rng.standard_normal((4, 6)).astype(np.float32)
        b = rng.standard_normal((6, 5)).astype(np.float32)
        expected = F.matmul(a, b)
        backing = np.zeros((4, 10), dtype=np.float32)
        out = backing[:, ::2]
        np.testing.assert_array_equal(F.matmul(a, b, out=out), expected)
        bad = np.zeros((2, 4, 10), dtype=np.float32)[:, :, ::2]
        with pytest.raises(ValueError, match="out buffer"):
            F.matmul(a, b, out=bad)  # broadcast-compatible but wrong shape

    @pytest.mark.parametrize("alpha,beta,trans_a,trans_b", [
        (1.0, 1.0, False, False),
        (0.5, 2.0, False, True),
        (2.0, 0.0, True, False),
        (1.5, 1.0, True, True),
    ])
    def test_gemm_out_bitwise(self, rng, alpha, beta, trans_a, trans_b):
        a = rng.standard_normal((6, 4) if not trans_a else (4, 6)).astype(np.float32)
        b = rng.standard_normal((4, 5) if not trans_b else (5, 4)).astype(np.float32)
        c = rng.standard_normal((5,)).astype(np.float32)
        expected = F.gemm(a, b, c, alpha=alpha, beta=beta,
                          trans_a=trans_a, trans_b=trans_b)
        out = np.empty_like(expected)
        got = F.gemm(a, b, c, alpha=alpha, beta=beta,
                     trans_a=trans_a, trans_b=trans_b, out=out)
        assert got is out
        np.testing.assert_array_equal(got, expected)
        np.testing.assert_allclose(
            expected, alpha * ((a.T if trans_a else a) @ (b.T if trans_b else b))
            + beta * c, rtol=1e-5)

    def test_gemm_out_aliases_c_operand(self, rng):
        """Regression: the product must not overwrite C before beta*C reads it."""
        a = rng.standard_normal((4, 4)).astype(np.float32)
        b = rng.standard_normal((4, 4)).astype(np.float32)
        c = rng.standard_normal((4, 4)).astype(np.float32)
        expected = F.gemm(a, b, c.copy())
        got = F.gemm(a, b, c, out=c)
        assert got is c
        np.testing.assert_array_equal(got, expected)

    def test_linear_out_aliases_bias(self, rng):
        x = rng.standard_normal((3, 3)).astype(np.float32)
        w = rng.standard_normal((3, 3)).astype(np.float32)
        bias = rng.standard_normal((3, 3)).astype(np.float32)
        expected = F.linear(x, w, bias.copy())
        np.testing.assert_array_equal(F.linear(x, w, bias, out=bias), expected)

    def test_linear_out_and_inplace_bias(self, rng):
        x = rng.standard_normal((2, 3, 4)).astype(np.float32)
        w = rng.standard_normal((4, 6)).astype(np.float32)
        bias = rng.standard_normal(6).astype(np.float32)
        expected = F.linear(x, w, bias)
        out = np.empty_like(expected)
        assert F.linear(x, w, bias, out=out) is out
        np.testing.assert_array_equal(out, expected)
        np.testing.assert_allclose(expected, x @ w + bias, rtol=1e-5)


class TestPoolingDestinations:
    def test_max_pool_out_bitwise(self, rng):
        x = rng.standard_normal((2, 3, 9, 9)).astype(np.float32)
        for kwargs in ({"kernel": (3, 3), "strides": (2, 2), "pads": (1, 1, 1, 1)},
                       {"kernel": (2, 2), "strides": (2, 2), "ceil_mode": True},
                       {"kernel": (1, 1)}):
            expected = F.max_pool2d(x, **kwargs)
            out = np.empty_like(expected)
            got = F.max_pool2d(x, out=out, workspace=Workspace(), **kwargs)
            assert got is out
            np.testing.assert_array_equal(got, expected)

    def test_avg_pool_out_bitwise_both_count_modes(self, rng):
        x = rng.standard_normal((1, 4, 10, 10)).astype(np.float32)
        for include in (False, True):
            expected = F.avg_pool2d(x, kernel=(3, 3), strides=(2, 2),
                                    pads=(1, 1, 1, 1), count_include_pad=include)
            out = np.empty_like(expected)
            got = F.avg_pool2d(x, kernel=(3, 3), strides=(2, 2),
                               pads=(1, 1, 1, 1), count_include_pad=include,
                               out=out, workspace=Workspace())
            np.testing.assert_array_equal(got, expected)

    def test_pool_out_aliasing_input(self, rng):
        """kernel=1, stride=1 pooling is shape-preserving: out may be x."""
        x = rng.standard_normal((1, 2, 6, 6)).astype(np.float32)
        expected = F.max_pool2d(x.copy(), kernel=(1, 1))
        got = F.max_pool2d(x, kernel=(1, 1), out=x, workspace=Workspace())
        assert got is x
        np.testing.assert_array_equal(got, expected)

    def test_pool_bad_out_shape_raises(self, rng):
        x = rng.standard_normal((1, 2, 6, 6)).astype(np.float32)
        with pytest.raises(ValueError, match="out buffer"):
            F.max_pool2d(x, kernel=(2, 2), strides=(2, 2),
                         out=np.empty((1, 2, 6, 6), dtype=np.float32))


class TestWorkspaceAndHelpers:
    def test_workspace_leases_distinct_buffers(self):
        ws = Workspace()
        a = ws.take((4, 4))
        b = ws.take((3, 5), np.float64)
        assert not np.shares_memory(a, b)
        ws.reset()  # grows once to the first pass's high-water mark
        warm = ws.stats()["allocations"]
        for _ in range(2):  # second pass onward: views of the one buffer
            c = ws.take((4, 4))
            d = ws.take((3, 5), np.float64)
            assert (c.shape, c.dtype) == ((4, 4), np.float32)
            assert (d.shape, d.dtype) == ((3, 5), np.float64)
            assert c.ctypes.data % 64 == 0 and d.ctypes.data % 64 == 0
            c.fill(1.0)
            d.fill(2.0)
            assert not np.shares_memory(c, d)
            assert c.sum() == 16.0 and d.sum() == 30.0  # disjoint bytes
            ws.reset()
        assert ws.stats()["allocations"] == warm

    def test_pad_nchw_out_matches_np_pad(self, rng):
        x = rng.standard_normal((2, 3, 4, 5)).astype(np.float32)
        pads = (1, 2, 3, 0)
        expected = pad_nchw(x, pads, value=-1.5)
        out = np.empty(expected.shape, dtype=np.float32)
        got = pad_nchw(x, pads, value=-1.5, out=out)
        assert got is out
        np.testing.assert_array_equal(got, expected)
        with pytest.raises(ValueError, match="pad_nchw out"):
            pad_nchw(x, pads, out=np.empty((1, 1, 1, 1), dtype=np.float32))
