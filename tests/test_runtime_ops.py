"""Tests for the numpy operator runtime (the PyTorch substitute)."""

from __future__ import annotations

import numpy as np
import pytest
from scipy.signal import correlate2d

import repro.runtime.functional as F
from repro.runtime.tensor_utils import normalize_pads, pad_nchw, window_view


class TestTensorUtils:
    def test_pad_nchw(self):
        x = np.ones((1, 1, 2, 2), dtype=np.float32)
        padded = pad_nchw(x, (1, 2, 1, 2))
        assert padded.shape == (1, 1, 4, 6)
        assert padded[0, 0, 0, 0] == 0.0

    def test_normalize_pads(self):
        assert normalize_pads([1, 2]) == [1, 2, 1, 2]
        assert normalize_pads([1, 2, 3, 4]) == [1, 2, 3, 4]
        with pytest.raises(ValueError):
            normalize_pads([1, 2, 3])

    def test_window_view_taps_in_row_major_order(self):
        x = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
        windows = window_view(x, (2, 2, 2, 2), (1, 1, 2, 2))  # 2x2 kernel, stride 2
        assert windows.shape == (1, 1, 2, 2, 2, 2) and np.shares_memory(windows, x)
        # Output position (0, 0) sees the window [[0, 1], [4, 5]], tap by tap.
        np.testing.assert_array_equal(windows[0, 0, :, :, 0, 0], [[0, 1], [4, 5]])
        np.testing.assert_array_equal(windows[0, 0, 1, 1], [[5, 7], [13, 15]])

    def test_window_view_dilation_leading_dims_and_strides(self):
        x = np.arange(25, dtype=np.float32).reshape(5, 5)
        windows = window_view(x, (2, 2, 3, 3), (2, 2, 1, 1))  # dilation 2
        assert windows.shape == (2, 2, 3, 3)
        np.testing.assert_array_equal(windows[1, 1], x[2:5, 2:5])
        # The view's strides are multiples of the source's own: a transposed
        # (non-contiguous) source gives the transposed windows.
        np.testing.assert_array_equal(
            window_view(x.T, (2, 2, 3, 3), (2, 2, 1, 1))[0, 1], x.T[0:3, 2:5])

    def test_window_view_gathers_the_conv_column_matrix(self):
        x = np.arange(9, dtype=np.float32).reshape(1, 1, 3, 3)
        cols = np.empty((2, 2, 2, 2), dtype=np.float32)
        np.copyto(cols, window_view(x, (2, 2, 2, 2), (1, 1, 1, 1))[0, 0])
        cols = cols.reshape(4, 4)
        # Column p is the patch under output position p.
        np.testing.assert_array_equal(cols[:, 0], [0, 1, 3, 4])
        np.testing.assert_array_equal(cols[:, 3], [4, 5, 7, 8])


class TestConv:
    def test_conv2d_matches_scipy(self, rng):
        x = rng.standard_normal((1, 3, 12, 12)).astype(np.float32)
        w = rng.standard_normal((4, 3, 3, 3)).astype(np.float32)
        y = F.conv2d(x, w, pads=(1, 1, 1, 1))
        ref = sum(correlate2d(x[0, c], w[0, c], mode="same") for c in range(3))
        np.testing.assert_allclose(y[0, 0], ref, atol=1e-4)

    def test_conv2d_stride_and_bias(self, rng):
        x = rng.standard_normal((2, 3, 8, 8)).astype(np.float32)
        w = rng.standard_normal((5, 3, 3, 3)).astype(np.float32)
        b = rng.standard_normal(5).astype(np.float32)
        y = F.conv2d(x, w, b, strides=(2, 2), pads=(1, 1, 1, 1))
        assert y.shape == (2, 5, 4, 4)
        y0 = F.conv2d(x, w, None, strides=(2, 2), pads=(1, 1, 1, 1))
        np.testing.assert_allclose(y, y0 + b.reshape(1, -1, 1, 1), rtol=1e-5)

    def test_grouped_conv_equals_split(self, rng):
        x = rng.standard_normal((1, 4, 6, 6)).astype(np.float32)
        w = rng.standard_normal((4, 2, 3, 3)).astype(np.float32)
        grouped = F.conv2d(x, w, pads=(1, 1, 1, 1), group=2)
        part0 = F.conv2d(x[:, :2], w[:2], pads=(1, 1, 1, 1))
        part1 = F.conv2d(x[:, 2:], w[2:], pads=(1, 1, 1, 1))
        np.testing.assert_allclose(grouped, np.concatenate([part0, part1], axis=1), rtol=1e-5)

    def test_depthwise(self, rng):
        x = rng.standard_normal((1, 3, 6, 6)).astype(np.float32)
        w = rng.standard_normal((3, 1, 3, 3)).astype(np.float32)
        y = F.depthwise_conv2d(x, w, pads=(1, 1, 1, 1))
        assert y.shape == (1, 3, 6, 6)

    def test_channel_mismatch_raises(self, rng):
        x = rng.standard_normal((1, 3, 6, 6)).astype(np.float32)
        w = rng.standard_normal((4, 2, 3, 3)).astype(np.float32)
        with pytest.raises(ValueError):
            F.conv2d(x, w)

    def test_conv_transpose_inverts_spatial_reduction(self, rng):
        x = rng.standard_normal((1, 2, 4, 4)).astype(np.float32)
        w = rng.standard_normal((2, 3, 2, 2)).astype(np.float32)
        y = F.conv_transpose2d(x, w, strides=(2, 2))
        assert y.shape == (1, 3, 8, 8)


class TestPooling:
    def test_max_pool_basic(self):
        x = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
        y = F.max_pool2d(x, (2, 2), (2, 2))
        np.testing.assert_array_equal(y[0, 0], [[5, 7], [13, 15]])

    def test_avg_pool_counts(self):
        x = np.ones((1, 1, 4, 4), dtype=np.float32)
        y = F.avg_pool2d(x, (2, 2), (2, 2))
        np.testing.assert_allclose(y, np.ones((1, 1, 2, 2)))

    def test_avg_pool_exclude_pad(self):
        x = np.ones((1, 1, 2, 2), dtype=np.float32)
        incl = F.avg_pool2d(x, (3, 3), (1, 1), pads=(1, 1, 1, 1), count_include_pad=True)
        excl = F.avg_pool2d(x, (3, 3), (1, 1), pads=(1, 1, 1, 1), count_include_pad=False)
        assert excl[0, 0, 0, 0] == pytest.approx(1.0)
        assert incl[0, 0, 0, 0] < 1.0

    def test_ceil_mode_keeps_partial_window(self):
        x = np.arange(25, dtype=np.float32).reshape(1, 1, 5, 5)
        no_ceil = F.max_pool2d(x, (2, 2), (2, 2), ceil_mode=False)
        ceil = F.max_pool2d(x, (2, 2), (2, 2), ceil_mode=True)
        assert no_ceil.shape == (1, 1, 2, 2)
        assert ceil.shape == (1, 1, 3, 3)

    def test_global_pools(self, rng):
        x = rng.standard_normal((2, 3, 5, 5)).astype(np.float32)
        np.testing.assert_allclose(F.global_avg_pool2d(x)[..., 0, 0], x.mean(axis=(2, 3)), rtol=1e-5)
        np.testing.assert_allclose(F.global_max_pool2d(x)[..., 0, 0], x.max(axis=(2, 3)), rtol=1e-5)


class TestActivationsAndElementwise:
    def test_relu_and_leaky(self):
        x = np.array([-2.0, 0.0, 3.0], dtype=np.float32)
        np.testing.assert_array_equal(F.relu(x), [0, 0, 3])
        np.testing.assert_allclose(F.leaky_relu(x, 0.1), [-0.2, 0, 3], rtol=1e-6)

    def test_sigmoid_tanh_bounds(self, rng):
        x = rng.standard_normal(100).astype(np.float32) * 10
        s = F.sigmoid(x)
        assert np.all((s >= 0) & (s <= 1))
        assert float(F.sigmoid(np.float32(0.0))) == pytest.approx(0.5)
        assert np.all(np.abs(F.tanh(x)) <= 1)

    def test_softmax_normalizes(self, rng):
        x = rng.standard_normal((4, 7)).astype(np.float32)
        s = F.softmax(x, axis=-1)
        np.testing.assert_allclose(s.sum(axis=-1), np.ones(4), rtol=1e-5)
        np.testing.assert_allclose(F.log_softmax(x), np.log(s), atol=1e-5)

    def test_softmax_stability_large_values(self):
        x = np.array([[1e4, 1e4 + 1]], dtype=np.float32)
        s = F.softmax(x)
        assert np.isfinite(s).all()

    def test_gelu_erf_silu(self):
        x = np.linspace(-3, 3, 7).astype(np.float32)
        np.testing.assert_allclose(F.gelu(x), 0.5 * x * (1 + F.erf(x / np.sqrt(2))), rtol=1e-5)
        np.testing.assert_allclose(F.silu(x), x * F.sigmoid(x), rtol=1e-5)

    def test_erf_error_contract(self):
        """The vectorised rational approximation, against float64 ``erf``."""
        from scipy.special import erf as exact

        grid = np.linspace(-6.0, 6.0, 1_200_001).astype(np.float32)
        got = F.erf(grid)
        assert got.dtype == np.float32
        assert np.abs(got - exact(grid.astype(np.float64))).max() <= 5e-7
        assert np.abs(got).max() <= 1.0
        np.testing.assert_array_equal(F.erf(-grid), -got)  # odd, bit for bit
        tiny = np.logspace(-30, -3, 20_001).astype(np.float32)
        tiny = np.concatenate([tiny, -tiny])
        reference = exact(tiny.astype(np.float64))
        assert np.abs((F.erf(tiny) - reference) / reference).max() <= 1e-6
        special = F.erf(np.array([np.nan, np.inf, -np.inf, 0.0, -0.0], dtype=np.float32))
        np.testing.assert_array_equal(special, [np.nan, 1.0, -1.0, 0.0, -0.0])
        np.testing.assert_array_equal(np.signbit(special[3:]), [False, True])
        aliased = grid.copy()
        assert F.erf(aliased, out=aliased) is aliased
        np.testing.assert_array_equal(aliased, got)
        # 0-d input has no buffer to evaluate in: scipy, exact to the last bit.
        assert F.erf(np.float32(0.5)) == np.float32(exact(np.float32(0.5)))

    def test_clip(self):
        x = np.array([-5.0, 0.5, 9.0])
        np.testing.assert_array_equal(F.clip(x, 0.0, 1.0), [0, 0.5, 1])
        np.testing.assert_array_equal(F.clip(x, None, 1.0), [-5, 0.5, 1])

    def test_binary_broadcasting(self, rng):
        a = rng.standard_normal((2, 3, 4)).astype(np.float32)
        b = rng.standard_normal((4,)).astype(np.float32)
        np.testing.assert_allclose(F.add(a, b), a + b)
        np.testing.assert_allclose(F.mul(a, b), a * b)
        np.testing.assert_allclose(F.where(a > 0, a, b), np.where(a > 0, a, b))


class TestLinearAndNorm:
    def test_gemm_transposes(self, rng):
        a = rng.standard_normal((3, 4)).astype(np.float32)
        b = rng.standard_normal((5, 4)).astype(np.float32)
        c = rng.standard_normal((5,)).astype(np.float32)
        y = F.gemm(a, b, c, trans_b=True)
        np.testing.assert_allclose(y, a @ b.T + c, rtol=1e-5)

    def test_linear_bias(self, rng):
        x = rng.standard_normal((2, 3, 4)).astype(np.float32)
        w = rng.standard_normal((4, 6)).astype(np.float32)
        bias = rng.standard_normal(6).astype(np.float32)
        np.testing.assert_allclose(F.linear(x, w, bias), x @ w + bias, rtol=1e-5)

    def test_batch_norm_normalizes(self, rng):
        x = rng.standard_normal((2, 3, 4, 4)).astype(np.float32)
        mean = x.mean(axis=(0, 2, 3))
        var = x.var(axis=(0, 2, 3))
        y = F.batch_norm(x, np.ones(3), np.zeros(3), mean, var)
        assert abs(float(y.mean())) < 0.1

    def test_layer_norm_zero_mean_unit_var(self, rng):
        x = rng.standard_normal((2, 5, 8)).astype(np.float32)
        y = F.layer_norm(x, np.ones(8), np.zeros(8))
        np.testing.assert_allclose(y.mean(axis=-1), 0.0, atol=1e-4)
        np.testing.assert_allclose(y.var(axis=-1), 1.0, atol=1e-2)

    def test_attention_shapes_and_weights(self, rng):
        x = rng.standard_normal((1, 6, 16)).astype(np.float32)
        w = [rng.standard_normal((16, 16)).astype(np.float32) * 0.1 for _ in range(4)]
        out = F.multi_head_attention(x, w[0], w[1], w[2], w[3], num_heads=4)
        assert out.shape == (1, 6, 16)
        q = F.split_heads(F.linear(x, w[0]), 4)
        assert q.shape == (1, 4, 6, 4)
        np.testing.assert_allclose(F.merge_heads(q), F.linear(x, w[0]), rtol=1e-5)


class TestMovementAndReduction:
    def test_concat_split_roundtrip(self, rng):
        x = rng.standard_normal((1, 6, 2, 2)).astype(np.float32)
        parts = F.split(x, parts=3, axis=1)
        np.testing.assert_array_equal(F.concat(parts, axis=1), x)

    def test_reshape_zero_and_minus_one(self):
        x = np.zeros((2, 3, 4))
        assert F.reshape(x, [0, -1]).shape == (2, 12)
        assert F.reshape(x, [-1]).shape == (24,)

    def test_slice_negative_and_sentinel(self):
        x = np.arange(10)
        np.testing.assert_array_equal(F.slice_(x, [2], [2**31 + 10], [0]), x[2:])
        np.testing.assert_array_equal(F.slice_(x, [-3], [10], [0]), x[-3:])
        np.testing.assert_array_equal(F.slice_(x, [0], [10], [0], [2]), x[::2])

    def test_gather_and_gather_elements(self):
        data = np.arange(12).reshape(3, 4)
        np.testing.assert_array_equal(F.gather(data, np.array([2, 0]), axis=0), data[[2, 0]])
        idx = np.array([[0, 1, 2, 3], [3, 2, 1, 0], [0, 0, 0, 0]])
        np.testing.assert_array_equal(F.gather_elements(data, idx, axis=1),
                                      np.take_along_axis(data, idx, axis=1))

    def test_pad_expand_tile(self):
        x = np.ones((1, 2))
        assert F.pad(x, [0, 1, 0, 1]).shape == (1, 4)
        assert F.expand(x, [3, 2]).shape == (3, 2)
        assert F.tile(x, [2, 3]).shape == (2, 6)

    def test_resize_nearest_doubles(self):
        x = np.arange(4, dtype=np.float32).reshape(1, 1, 2, 2)
        y = F.resize_nearest(x, [1, 1, 2, 2])
        assert y.shape == (1, 1, 4, 4)
        assert y[0, 0, 0, 0] == y[0, 0, 1, 1] == 0

    def test_space_depth_roundtrip(self, rng):
        x = rng.standard_normal((1, 4, 4, 4)).astype(np.float32)
        np.testing.assert_allclose(F.depth_to_space(F.space_to_depth(x, 2), 2), x)

    def test_reductions(self, rng):
        x = rng.standard_normal((2, 3, 4)).astype(np.float32)
        np.testing.assert_allclose(F.reduce_mean(x, [1], keepdims=False), x.mean(axis=1), rtol=1e-5)
        np.testing.assert_allclose(F.reduce_sum(x, [-1]), x.sum(axis=-1, keepdims=True), rtol=1e-5)
        np.testing.assert_allclose(F.reduce_max(x, [0, 2], keepdims=False), x.max(axis=(0, 2)))
        np.testing.assert_allclose(F.reduce_l2(x, [2], keepdims=False),
                                   np.sqrt((x ** 2).sum(axis=2)), rtol=1e-5)

    def test_argmax_topk(self, rng):
        x = rng.standard_normal((3, 10)).astype(np.float32)
        np.testing.assert_array_equal(F.argmax(x, axis=1, keepdims=False), x.argmax(axis=1))
        values, idx = F.topk(x, 3, axis=1)
        assert values.shape == (3, 3)
        np.testing.assert_allclose(values[:, 0], x.max(axis=1), rtol=1e-6)

    def test_one_hot(self):
        out = F.one_hot(np.array([0, 2]), 3)
        np.testing.assert_array_equal(out, [[1, 0, 0], [0, 0, 1]])

