"""How many numpy passes the heavy kernels make — counted, not timed.

At batch 1 the maps are small and a kernel's cost is the number of numpy
calls it issues, so the counts are the contract: O(1) calls per sample for
a convolution whatever its kernel size, KH + KW - 2 folds for a pooling
window, two sweeps for a BatchNorm.  The spies replace the ``np.<ufunc>``
module attributes the kernels look up at call time and count the calls
that sweep a whole tensor (per-channel vector arithmetic is not a pass).

Also here, because they guard the geometry memo those counts rest on: an
invalid configuration is never cached, the memo is bounded, and records
are safe to share between threads.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

import repro.runtime.functional as F
from repro.runtime.ops import conv, pooling
from repro.runtime.tensor_utils import BoundedMemo, Workspace

SPIED = ("copyto", "matmul", "maximum", "add", "multiply")


@pytest.fixture()
def passes(monkeypatch):
    """``passes[name]`` lists the element count each ``np.<name>`` call wrote."""
    calls = {name: [] for name in SPIED}

    def spy(name):
        real = getattr(np, name)

        def counted(*args, **kwargs):
            result = real(*args, **kwargs)
            written = args[0] if name == "copyto" else result
            calls[name].append(np.size(written))
            return result

        return counted

    for name in SPIED:
        monkeypatch.setattr(np, name, spy(name))
    return calls


@pytest.fixture()
def rng():
    return np.random.default_rng(18)


def _tensor(rng, *shape):
    return rng.standard_normal(shape).astype(np.float32)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("group", [1, 2])
def test_general_conv_gathers_once_per_sample(passes, rng, n, group):
    x, w, b = _tensor(rng, n, 4, 9, 9), _tensor(rng, 6, 4 // group, 5, 5), _tensor(rng, 6)
    out = np.empty((n, 6, 9, 9), dtype=np.float32)
    F.conv2d(x, w, b, pads=(2, 2, 2, 2), group=group, out=out, workspace=Workspace())
    assert len(passes["copyto"]) == n          # the gathers; padding is fill + assign
    assert len(passes["matmul"]) == n * group
    assert passes["add"] == [out.size]         # the bias
    assert not passes["multiply"] and not passes["maximum"]


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("multiplier", [1, 2])
def test_depthwise_conv_is_gather_plus_batched_gemm(passes, rng, n, multiplier):
    x, w = _tensor(rng, n, 6, 9, 9), _tensor(rng, 6 * multiplier, 1, 5, 5)
    out = np.empty((n, 6 * multiplier, 9, 9), dtype=np.float32)
    F.conv2d(x, w, pads=(2, 2, 2, 2), group=6, out=out, workspace=Workspace())
    assert len(passes["copyto"]) == n
    assert len(passes["matmul"]) == n
    assert not passes["multiply"] and not passes["add"]


@pytest.mark.parametrize("n", [1, 2])
def test_pointwise_conv_is_a_bare_gemm(passes, rng, n):
    x, w = _tensor(rng, n, 8, 6, 6), _tensor(rng, 5, 8, 1, 1)
    F.conv2d(x, w, out=np.empty((n, 5, 6, 6), dtype=np.float32), workspace=Workspace())
    assert len(passes["matmul"]) == n
    assert not passes["copyto"]


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("kernel, folds", [((3, 3), 4), ((7, 7), 12), ((1, 7), 6),
                                           ((7, 1), 6), ((1, 1), 0)])
def test_pooling_folds_rows_then_columns(passes, rng, n, kernel, folds):
    x = _tensor(rng, n, 3, 12, 12)
    pads = (kernel[0] // 2, kernel[1] // 2) * 2
    out = np.empty_like(x)
    F.max_pool2d(x, kernel, pads=pads, out=out, workspace=Workspace())
    assert len(passes["maximum"]) == folds and not passes["add"]
    F.avg_pool2d(x, kernel, pads=pads, count_include_pad=True, out=out,
                 workspace=Workspace())
    assert len(passes["add"]) == folds
    # Only a 1x1 window, which folds nothing, copies; no stage is staged.
    assert len(passes["copyto"]) == (2 if folds == 0 else 0)


@pytest.mark.parametrize("n", [1, 2])
def test_batch_norm_sweeps_the_activation_twice(passes, rng, n):
    x = _tensor(rng, n, 5, 4, 4)
    scale, bias, mean = (_tensor(rng, 5) for _ in range(3))
    F.batch_norm(x, scale, bias, mean, np.abs(_tensor(rng, 5)), out=np.empty_like(x))
    assert passes["multiply"] == [x.size] and passes["add"] == [x.size]


# ---------------------------------------------------------------------------
# The geometry memo
# ---------------------------------------------------------------------------
def test_invalid_configurations_are_never_cached(rng):
    x = _tensor(rng, 1, 4, 5, 5)
    conv_memo, pool_memo = len(conv._GEOMETRY), len(pooling._GEOMETRY)
    for _ in range(2):
        with pytest.raises(ValueError, match="channel mismatch"):
            F.conv2d(x, _tensor(rng, 2, 3, 3, 3))
        with pytest.raises(ValueError, match="does not fit"):
            F.conv2d(x, _tensor(rng, 2, 4, 7, 7))
        with pytest.raises(ValueError, match="4D"):
            F.conv2d(x[0], _tensor(rng, 2, 4, 3, 3))
        with pytest.raises(ValueError, match="does not fit"):
            F.max_pool2d(x, (6, 6))
        with pytest.raises(ValueError, match="4D"):
            F.avg_pool2d(x[0], (2, 2))
    assert (len(conv._GEOMETRY), len(pooling._GEOMETRY)) == (conv_memo, pool_memo)


def test_memo_never_exceeds_its_bound(rng, monkeypatch):
    built = []
    memo = BoundedMemo(lambda a, b: built.append(a) or a + b, bound=3)
    for a in range(10):
        assert memo[a, 1] == a + 1 and memo[a, 1] == a + 1 and len(memo) <= 3
    assert built == list(range(10))  # the second lookup of a key is a hit
    monkeypatch.setattr(conv._GEOMETRY, "bound", 4)
    monkeypatch.setattr(pooling._GEOMETRY, "bound", 4)
    w = _tensor(rng, 2, 2, 3, 3)
    for size in range(3, 16):
        x = _tensor(rng, 1, 2, size, size)
        y = F.conv2d(x, w)
        np.testing.assert_array_equal(F.conv2d(x, w), y)  # a hit after the miss
        F.max_pool2d(x, (2, 2))
        assert len(conv._GEOMETRY) <= 4 and len(pooling._GEOMETRY) <= 4


def test_hyper_parameter_spellings_agree(rng):
    x, w = _tensor(rng, 1, 2, 8, 8), _tensor(rng, 2, 2, 3, 3)
    expected = F.conv2d(x, w, strides=(2, 2), pads=(1, 1, 1, 1))
    for strides, pads in (([2, 2], [1, 1]), (2, np.array([1, 1, 1, 1])),
                          (np.int64(2), (1, 1))):
        np.testing.assert_array_equal(F.conv2d(x, w, strides=strides, pads=pads), expected)
    pooled = F.max_pool2d(x, (2, 2), strides=(2, 2))
    np.testing.assert_array_equal(F.max_pool2d(x, 2, strides=[2, 2]), pooled)


def test_threads_share_the_memo_safely(rng):
    """More threads than cores, a short switch interval, a memo small enough
    to be emptied under them: every result still equals the serial one."""
    cases = []
    for index in range(6):
        x = _tensor(rng, 1, 4, 6 + index, 7 + index)
        w = _tensor(rng, 4 if index % 2 else 8, 1 if index % 2 else 4, 3, 3)
        kwargs = dict(pads=(1, 1, 1, 1), group=4 if index % 2 else 1)
        cases.append((x, w, kwargs, F.conv2d(x, w, **kwargs),
                      F.max_pool2d(x, (3, 3), pads=(1, 1, 1, 1))))
    failures = []

    def worker(case):
        x, w, kwargs, conv_expected, pool_expected = case
        workspace = Workspace()
        try:
            for _ in range(40):
                np.testing.assert_array_equal(
                    F.conv2d(x, w, workspace=workspace, **kwargs), conv_expected)
                np.testing.assert_array_equal(
                    F.max_pool2d(x, (3, 3), pads=(1, 1, 1, 1), workspace=workspace),
                    pool_expected)
        except BaseException as exc:  # noqa: BLE001 - reported by the main thread
            failures.append(exc)
            raise

    interval = sys.getswitchinterval()
    bounds = conv._GEOMETRY.bound, pooling._GEOMETRY.bound
    sys.setswitchinterval(1e-5)
    conv._GEOMETRY.bound = pooling._GEOMETRY.bound = 2
    try:
        threads = [threading.Thread(target=worker, args=(case,)) for case in cases]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
        conv._GEOMETRY.bound, pooling._GEOMETRY.bound = bounds
    assert not failures
