"""A fused batch computes, bitwise, what each of its requests gets alone.

Two pieces make it so: ``optimize_model`` lets reshape targets follow the
batch and records each 2-D product's compiled row count, and the product
kernels run a fused batch as one call of that compiled shape per sample
(OpenBLAS gives the rows of one ``(N, K) @ (K, M)`` call other bits than
N ``(1, K) @ (K, M)`` calls).
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.runtime.functional as F
from repro.models import build_model, list_models
from repro.pipeline import ramiel_compile
from repro.runtime.blas import pin_blas_threads
from repro.runtime.session import create_session
from repro.serving import example_inputs

SAMPLES = 4
K = M = 256  # square, so the destination can be the activation operand itself


def _call(kernel, x, weight, bias, rows, out=None):
    """One product of ``x`` (rows on axis 0; on axis 1 for ``gemm_trans``)."""
    if kernel == "matmul":
        return F.matmul(x, weight, out=out, sample_rows=rows)
    if kernel == "gemm":
        return F.gemm(x, weight.T.copy(), bias, trans_b=True, out=out, sample_rows=rows)
    return F.gemm(x, weight, bias, alpha=0.5, trans_a=True, out=out, sample_rows=rows)


@pytest.mark.parametrize("dest", ["contiguous", "aliasing", "strided", None])
@pytest.mark.parametrize("rows", [1, 3])
@pytest.mark.parametrize("kernel", ["matmul", "gemm", "gemm_trans"])
@pytest.mark.parametrize("threads", [1, 4])
def test_fused_rows_are_bitwise_their_batch_1_calls(threads, kernel, rows, dest):
    # replica 0 probes and serves at the process's BLAS count, not just one
    pin_blas_threads(threads)
    rng = np.random.default_rng(rows)
    weight = rng.standard_normal((K, M), dtype=np.float32)
    bias = rng.standard_normal(M, dtype=np.float32)
    trans = kernel == "gemm_trans"
    # each sample's operand as its batch-1 call gets it: a contiguous block
    blocks = [rng.standard_normal((K, rows) if trans else (rows, K), dtype=np.float32)
              for _ in range(SAMPLES)]
    alone = [_call(kernel, block, weight, bias, rows) for block in blocks]
    fused = np.concatenate(blocks, axis=1 if trans else 0)
    out = None
    if dest == "contiguous":
        out = np.full((SAMPLES * rows, M), np.nan, dtype=np.float32)
    elif dest == "aliasing":
        out = fused.T if trans else fused
    elif dest == "strided":
        out = np.full((SAMPLES * rows, 2 * M), np.nan, dtype=np.float32)[:, ::2]
    result = _call(kernel, fused, weight, bias, rows, out=out)
    if out is not None:
        assert result is out
    for index, expected in enumerate(alone):
        assert np.array_equal(result[index * rows:(index + 1) * rows], expected)


def test_the_compiled_row_count_stays_one_call(monkeypatch):
    calls = []
    matmul = np.matmul
    monkeypatch.setattr(np, "matmul", lambda a, b, **kw: calls.append(a.shape) or matmul(a, b, **kw))
    x = np.ones((3, K), dtype=np.float32)
    weight = np.ones((K, M), dtype=np.float32)
    F.matmul(x, weight, sample_rows=3)
    F.matmul(np.ones((6, K), dtype=np.float32), weight, sample_rows=3)
    F.matmul(x, weight)
    assert calls == [(3, K), (2, 3, K), (3, K)]


def test_an_unpruned_compile_fuses_its_classifier_bitwise():
    """``prune=False`` skips ``optimize_model`` but not the batch-following
    rewrite, so googlenet's classifier ``Gemm`` still splits per sample."""
    pin_blas_threads(1)
    model = build_model("googlenet", variant="small")
    plan = create_session(ramiel_compile(model, prune=False, generate_code=False),
                          executor="plan")
    feeds = [example_inputs(model, seed=seed) for seed in range(3)]
    stacked = plan.run({key: np.concatenate([feed[key] for feed in feeds]) for key in feeds[0]})
    for index, feed in enumerate(feeds):
        for key, value in plan.run(feed).items():
            assert np.array_equal(stacked[key][index:index + 1], value), (key, index)


@pytest.mark.parametrize("name", list_models())
def test_a_stacked_batch_is_bitwise_each_feeds_batch_1_run(name):
    pin_blas_threads(1)  # the budget a forked worker computes at
    model = build_model(name, variant="small")
    result = ramiel_compile(model)
    feeds = [example_inputs(model, seed=seed) for seed in range(3)]
    stacked = {key: np.concatenate([feed[key] for feed in feeds]) for key in feeds[0]}
    plan = create_session(result, executor="plan")
    alone = [plan.run(feed) for feed in feeds]
    sessions = [plan, create_session(result, executor="interp"),
                create_session(result, executor="process", cores=1, max_batch=3)]
    try:
        for session in sessions:
            outputs = session.run(stacked)
            for index, expected in enumerate(alone):
                for key, value in expected.items():
                    assert np.array_equal(outputs[key][index:index + 1], value), (
                        session.executor, key, index)
    finally:
        for session in sessions:
            session.close()
