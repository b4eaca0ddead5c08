"""The process backend's shared-memory tensor plane.

Covers the slot transport in isolation (round trips, read-only views,
write-once values, ticket stamps, the header codec) and through the pool
(capacity rule and pickled fallback, recovery after a stranded run,
per-cluster feeds, zoo-wide bitwise agreement with the interpreter with
nothing pickled).
"""

from __future__ import annotations

import multiprocessing
import os

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from tests.conftest import build_diamond_model, build_wide_model, compiled_pool
from repro.ir import GraphBuilder
from repro.models import MODEL_REGISTRY, build_model
from repro.pipeline import ramiel_compile
from repro.runtime.channels import (
    MAX_NDIM,
    TensorPlane,
    decode_header,
    encode_header,
    fits_slot,
    split_channel_name,
)
from repro.runtime.executor import GraphExecutor
from repro.runtime.session import create_session
from repro.runtime.worker_pool import ParallelExecutionError, WarmExecutorPool
from repro.serving import example_inputs

FORK = multiprocessing.get_context("fork")

_RNG = np.random.default_rng(5)
PAYLOADS = {
    "float32": _RNG.standard_normal((2, 3, 5)).astype(np.float32),
    "float16": _RNG.standard_normal((7,)).astype(np.float16),
    "int64": _RNG.integers(-2**40, 2**40, size=(4, 2)),
    "bool": _RNG.integers(0, 2, size=(3, 3)).astype(bool),
    "zero_d": np.array(3.5, dtype=np.float64),
    "empty": np.zeros((0, 4), dtype=np.float32),
    "non_contiguous": _RNG.standard_normal((6, 8)).astype(np.float32)[::2, 1::3],
    "nan_and_negzero": np.array([np.nan, -0.0, np.inf], dtype=np.float32),
}


def _plane(names, nbytes=1024, **kwargs):
    specs = {name: ((nbytes,), "uint8") for name in names}
    return TensorPlane(names, specs, ctx=FORK, **kwargs)


def _bitwise(actual, expected):
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    assert actual.tobytes() == np.ascontiguousarray(expected).tobytes()


class TestSlotRoundTrip:
    @pytest.mark.parametrize("kind", sorted(PAYLOADS))
    def test_put_get_is_bitwise(self, kind):
        plane = _plane(["c0_to_c1__v"])
        plane.ticket = 1
        channel = plane.channels["c0_to_c1__v"]
        channel.put(PAYLOADS[kind])
        _bitwise(channel.get(), PAYLOADS[kind])
        assert plane.telemetry.snapshot()["overflow_puts"] == 0
        plane.close()

    def test_value_crosses_a_fork(self):
        plane = _plane(["c0_to_c1__v"])
        plane.ticket = 9

        def producer():  # pragma: no cover - child code
            plane.channels["c0_to_c1__v"].put(PAYLOADS["float32"])

        child = FORK.Process(target=producer)
        child.start()
        try:
            _bitwise(plane.channels["c0_to_c1__v"].get(), PAYLOADS["float32"])
        finally:
            child.join(10.0)
        assert not child.is_alive()
        plane.close()

    def test_received_views_are_read_only(self):
        plane = _plane(["c0_to_c1__v"])
        plane.ticket = 1
        plane.channels["c0_to_c1__v"].put(PAYLOADS["float32"])
        view = plane.channels["c0_to_c1__v"].get()
        assert not view.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            view[...] = 0
        with pytest.raises(ValueError, match="read-only"):
            np.add(view, 1, out=view)
        plane.close()

    def test_value_for_two_clusters_is_written_once(self):
        names = ["c0_to_c1__v", "c0_to_c2__v"]
        plane = _plane(names)
        plane.ticket = 1
        for name in names:
            plane.channels[name].put(PAYLOADS["int64"])
        first, second = (plane.channels[name].get() for name in names)
        _bitwise(first, PAYLOADS["int64"])
        assert np.shares_memory(first, second)  # one slot, two semaphores
        counters = plane.telemetry.snapshot()
        assert counters["puts"] == 1 and counters["gets"] == 2
        assert counters["put_bytes"] == PAYLOADS["int64"].nbytes
        assert counters["get_bytes"] == 2 * PAYLOADS["int64"].nbytes
        plane.close()

    def test_oversized_and_non_array_payloads_take_the_fallback(self):
        plane = _plane(["c0_to_c1__v"], nbytes=16)
        plane.ticket = 1
        channel = plane.channels["c0_to_c1__v"]
        big = PAYLOADS["float32"]
        channel.put(big)
        received = channel.get()
        _bitwise(received, big)
        plane.ticket = 2
        channel.put({"not": "an array"})
        assert channel.get() == {"not": "an array"}
        plane.ticket = 3
        scalar = np.float32(1.5)  # a slot would hand back a 0-d array
        channel.put(scalar)
        assert type(channel.get()) is np.float32
        assert plane.telemetry.snapshot()["overflow_puts"] == 3
        plane.close()

    def test_capacity_scales_with_max_batch(self):
        plane = _plane(["c0_to_c1__v"], nbytes=16, max_batch=4)
        plane.ticket = 1
        payload = np.arange(16, dtype=np.float32)  # 64 bytes = 4 x 16
        plane.channels["c0_to_c1__v"].put(payload)
        _bitwise(plane.channels["c0_to_c1__v"].get(), payload)
        assert plane.telemetry.snapshot()["overflow_puts"] == 0
        plane.close()

    def test_stale_ticket_read_raises(self):
        plane = _plane(["c0_to_c1__v"])
        channel = plane.channels["c0_to_c1__v"]
        plane.ticket = 1
        channel.put(PAYLOADS["bool"])  # run 1 strands a posted value
        plane.ticket = 2
        with pytest.raises(ParallelExecutionError, match="stale hand-off"):
            channel.get()
        plane.close()

    def test_close_removes_the_spill_directory(self):
        plane = _plane(["c0_to_c1__v"], nbytes=0)
        plane.ticket = 1
        plane.channels["c0_to_c1__v"].put(PAYLOADS["float32"])
        spill = plane._spill_dir
        assert os.listdir(spill)
        plane.close()
        assert not os.path.exists(spill)

    def test_channel_names_must_name_their_clusters(self):
        assert split_channel_name("c3_to_c12__a__b") == (3, 12, "a__b")
        with pytest.raises(ValueError, match="c<src>_to_c<dst>__<value>"):
            TensorPlane(["edge"], ctx=FORK)


_DTYPES = st.sampled_from(
    ["bool", "int8", "uint8", "int16", "int32", "int64", "uint64",
     "float16", "float32", "float64", "complex64", "complex128", ">f4", "<i2"])


class TestHeaderCodec:
    @settings(max_examples=200, deadline=None)
    @given(ticket=st.integers(1, 2**62),
           shape=st.lists(st.integers(0, 2**31), max_size=MAX_NDIM),
           dtype=_DTYPES)
    def test_header_round_trips(self, ticket, shape, dtype):
        decoded = decode_header(encode_header(ticket, shape, dtype))
        assert decoded == (ticket, tuple(shape), np.dtype(dtype))
        assert decoded[2].byteorder == np.dtype(dtype).byteorder

    @settings(max_examples=50, deadline=None)
    @given(ticket=st.integers(1, 2**62))
    def test_spilled_header_round_trips(self, ticket):
        assert decode_header(encode_header(ticket)) == (ticket, None, None)

    @settings(max_examples=100, deadline=None)
    @given(shape=st.lists(st.integers(0, 3), max_size=MAX_NDIM + 2),
           dtype=st.sampled_from(["float32", "int64", "bool", "U3", "O"]))
    def test_fits_slot_admits_exactly_what_the_header_encodes(self, shape, dtype):
        array = np.zeros(shape, dtype=dtype)
        expected = len(shape) <= MAX_NDIM and dtype not in ("U3", "O")
        assert fits_slot(array, capacity=array.nbytes) == expected
        if array.nbytes:
            assert not fits_slot(array, capacity=array.nbytes - 1)


# ---------------------------------------------------------------------------
# Through the pool
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def diamond():
    model = build_diamond_model()
    return model, ramiel_compile(model)


def _batched(model, batch, seed):
    feeds = [example_inputs(model, seed=seed + i) for i in range(batch)]
    return {name: np.concatenate([f[name] for f in feeds], axis=0)
            for name in feeds[0]}


@pytest.fixture(scope="module")
def spread():
    """A zoo model a session still spreads over two cores (predicted > 1x)."""
    model = build_model("inception_v3", variant="small")
    return model, ramiel_compile(model)


class TestPoolCapacity:
    def test_batch_within_capacity_uses_slots_beyond_takes_fallback(
            self, spread, pin_cores):
        model, result = spread
        pin_cores(2)
        interp = GraphExecutor(result.optimized_model)
        session = create_session(result, executor="process", max_batch=4)
        try:
            assert session.stats()["pool_clusters"] == 2
            for batch, overflows in ((1, False), (4, False), (8, True)):
                feed = _batched(model, batch, seed=3)
                before = session.stats()["pool"]["channels"]["overflow_puts"]
                outputs = session.run(feed)
                for name, ref in interp.run(feed).items():
                    _bitwise(outputs[name], ref)
                after = session.stats()["pool"]["channels"]["overflow_puts"]
                assert (after > before) == overflows, (batch, before, after)
        finally:
            session.close()

    def test_outputs_are_private_copies(self, spread, pin_cores):
        model, result = spread
        pin_cores(2)
        feed = example_inputs(model, seed=1)
        with create_session(result, executor="process") as session:
            assert session.stats()["pool_clusters"] == 2
            first = session.run(feed)
            kept = {name: value.copy() for name, value in first.items()}
            session.run(example_inputs(model, seed=2))  # rewrites the slots
            for name, value in first.items():
                assert value.flags.writeable
                _bitwise(value, kept[name])

    def test_generated_specs_cover_every_channel_deterministically(self, diamond):
        model, result = diamond
        module = result.parallel_module.module
        assert set(module.CHANNEL_NAMES) <= set(module.CHANNEL_SPECS)
        assert set(module.GRAPH_INPUTS + module.GRAPH_OUTPUTS) <= set(
            module.CHANNEL_SPECS)
        again = ramiel_compile(build_diamond_model())
        assert again.parallel_module.source == result.parallel_module.source


class _EchoModule:
    """Two clusters that report which graph inputs they were handed."""
    MODEL_NAME = "echo"
    CHANNEL_NAMES = ()
    GRAPH_INPUTS = ("a", "b")
    GRAPH_OUTPUTS = ("seen0", "seen1")
    CLUSTER_INPUTS = {0: ["a"], 1: []}

    def __init__(self):
        self.CLUSTER_FUNCTIONS = [self._cluster(0), self._cluster(1)]

    @staticmethod
    def _cluster(index):
        def run(inputs, weights, channels):
            return {f"seen{index}": np.array(sorted(inputs), dtype="U1")}
        return run


@pytest.mark.parametrize("backend", ["thread", "process"])
def test_workers_receive_only_the_inputs_their_cluster_reads(backend):
    feed = {"a": np.zeros(2, np.float32), "b": np.ones(2, np.float32)}
    with WarmExecutorPool(_EchoModule(), {}, backend=backend) as pool:
        outputs = pool.run(feed, timeout=30.0)
    assert outputs["seen0"].tolist() == ["a"]
    assert outputs["seen1"].tolist() == []


@pytest.mark.parametrize("backend", ["thread", "process"])
def test_heal_suffices_after_a_run_stranded_its_workers(backend):
    """Missing inputs fail the first cluster while its peers wait on
    hand-offs that never come: the pool is broken and refuses work, and a
    fresh pool over the same module (what Session.recover() builds) answers
    right, run after run, whatever the stranded workers still hold."""
    model = build_wide_model()
    result = ramiel_compile(model)
    feed = example_inputs(model, seed=4)
    reference = GraphExecutor(result.optimized_model).run(feed)
    weights = result.optimized_model.graph.initializers
    with WarmExecutorPool(result.parallel_module, weights, backend=backend,
                          fail_grace_s=0.5) as pool:
        assert pool.num_clusters > 1
        with pytest.raises(ParallelExecutionError):
            pool.run({}, timeout=30.0)
        assert pool.broken
        with pytest.raises(ParallelExecutionError, match="broken"):
            pool.run(feed, timeout=30.0)
    with WarmExecutorPool(result.parallel_module, weights,
                          backend=backend) as fresh:
        for _ in range(2):
            outputs = fresh.run(feed, timeout=30.0)
            for name, ref in reference.items():
                _bitwise(outputs[name], ref)


def test_squeezenet_fits_its_slots_at_the_engine_batch_size():
    model = MODEL_REGISTRY["squeezenet"].build(variant="small")
    result = ramiel_compile(model)
    feed = _batched(model, 8, seed=20)
    reference = GraphExecutor(result.optimized_model).run(feed)
    # squeezenet is a predicted loss a session runs on one worker; the slots
    # between its two compiled clusters are what this sizes
    with compiled_pool(result, max_batch=8) as pool:
        outputs = pool.run(feed)
        channels = pool.stats()["channels"]
    for name, ref in reference.items():
        _bitwise(outputs[name], ref)
    assert channels["overflow_puts"] == 0 and channels["put_bytes"] > 0


def test_slot_of_a_cast_output_is_sized_for_the_cast_type():
    """A ``Cast`` to float64 doubles the bytes; a slot sized from the input's
    element type would spill every run to a pickle file."""
    b = GraphBuilder("cast_out", seed=0)
    x = b.input("x", (1, 4, 8, 8))
    left = b.conv_relu(b.conv_relu(x, 4, kernel=3, pads=1), 4, kernel=3, pads=1)
    right = b.conv_relu(b.conv_relu(x, 4, kernel=3, pads=1), 4, kernel=3, pads=1)
    b.output(b.cast(b.add(left, right), to="float64"))
    model = b.build()
    result = ramiel_compile(model)
    assert result.num_clusters == 2
    feed = example_inputs(model, seed=5)
    reference = GraphExecutor(model).run(feed)
    with compiled_pool(result) as pool:
        for _ in range(2):
            outputs = pool.run(feed)
        channels = pool.stats()["channels"]
    for name, ref in reference.items():
        assert ref.dtype == np.float64
        _bitwise(outputs[name], ref)
    assert channels["overflow_puts"] == 0 and channels["put_bytes"] > 0


@pytest.mark.parametrize("model_name", sorted(MODEL_REGISTRY))
def test_process_backend_bitwise_equal_interpreter_on_zoo(model_name, pin_cores):
    pin_cores(4)  # folds 6-10 clusters onto 4 workers, whatever the host has
    model = MODEL_REGISTRY[model_name].build(variant="small")
    result = ramiel_compile(model)
    feed = example_inputs(model, seed=21)
    reference = GraphExecutor(result.optimized_model).run(feed)
    with create_session(result, executor="process") as session:
        for _ in range(2):
            outputs = session.run(feed)
            assert set(outputs) == set(reference)
            for name, ref in reference.items():
                _bitwise(np.asarray(outputs[name]), np.asarray(ref))
        channels = session.stats()["pool"]["channels"]
    # nothing was pickled: feed, hand-offs and outputs all used slots
    assert channels["overflow_puts"] == 0
    if session.pool.num_clusters > 1:
        assert channels["put_bytes"] > 0
