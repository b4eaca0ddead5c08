"""Tests for the graph executor, profiler and message channels."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ir import GraphBuilder
from repro.runtime import ExecutionError, GraphExecutor, execute_model, profile_model
from repro.runtime.channels import make_thread_channels


class TestExecutor:
    def test_diamond_output_shape(self, diamond_model, rng):
        x = rng.standard_normal((1, 3, 16, 16)).astype(np.float32)
        out = execute_model(diamond_model, {"x": x})
        (probs,) = out.values()
        assert probs.shape == (1, 10)
        np.testing.assert_allclose(probs.sum(), 1.0, rtol=1e-5)

    def test_missing_input_raises(self, diamond_model):
        with pytest.raises(ExecutionError, match="missing graph input"):
            execute_model(diamond_model, {})

    def test_requested_intermediate_output(self, diamond_model, rng):
        x = rng.standard_normal((1, 3, 16, 16)).astype(np.float32)
        graph = diamond_model.graph
        some_value = graph.nodes[0].primary_output
        out = GraphExecutor(diamond_model).run({"x": x}, outputs=[some_value])
        assert some_value in out

    def test_unknown_output_raises(self, diamond_model, rng):
        x = rng.standard_normal((1, 3, 16, 16)).astype(np.float32)
        with pytest.raises(ExecutionError):
            GraphExecutor(diamond_model).run({"x": x}, outputs=["nonexistent"])

    def test_unsupported_op_detected_at_construction(self):
        b = GraphBuilder("bad", seed=0)
        x = b.input("x", (1, 4))
        out = b.node("Einsum", [x], equation="ij->ji")  # registered but also supported
        b.output(out)
        model = b.build()
        # Now inject an unsupported custom op directly.
        model.graph.nodes[0].op_type = "NotARealOp"
        with pytest.raises(ExecutionError, match="no handlers"):
            GraphExecutor(model)

    def test_average_pool_defaults_to_onnx_count_include_pad(self, rng):
        """Regression: AveragePool with no count_include_pad attribute must
        use the ONNX default (0 — padding excluded from the divisor)."""
        import repro.runtime.functional as F

        x = rng.standard_normal((1, 2, 5, 5)).astype(np.float32)
        b = GraphBuilder("avgpool_default", seed=0)
        xin = b.input("x", (1, 2, 5, 5))
        out = b.node("AveragePool", [xin], kernel_shape=[3, 3],
                     strides=[1, 1], pads=[1, 1, 1, 1])
        b.output(out)
        (got,) = execute_model(b.build(), {"x": x}).values()
        expected = F.avg_pool2d(x, (3, 3), (1, 1), pads=(1, 1, 1, 1),
                                count_include_pad=False)
        np.testing.assert_array_equal(got, expected)
        # corner windows only see 4 real elements; with the old default the
        # divisor was 9, so the two conventions genuinely differ here
        included = F.avg_pool2d(x, (3, 3), (1, 1), pads=(1, 1, 1, 1),
                                count_include_pad=True)
        assert not np.allclose(got, included)
        np.testing.assert_allclose(got[0, :, 0, 0], x[0, :, :2, :2].mean(axis=(1, 2)),
                                   rtol=1e-6)

    def test_average_pool_attribute_still_honoured(self, rng):
        """count_include_pad=1 on the node keeps the include-pad divisor."""
        import repro.runtime.functional as F

        x = rng.standard_normal((1, 1, 4, 4)).astype(np.float32)
        b = GraphBuilder("avgpool_incl", seed=0)
        xin = b.input("x", (1, 1, 4, 4))
        out = b.node("AveragePool", [xin], kernel_shape=[2, 2],
                     strides=[2, 2], pads=[1, 1, 1, 1], count_include_pad=1)
        b.output(out)
        (got,) = execute_model(b.build(), {"x": x}).values()
        expected = F.avg_pool2d(x, (2, 2), (2, 2), pads=(1, 1, 1, 1),
                                count_include_pad=True)
        np.testing.assert_array_equal(got, expected)

    def test_node_failure_reports_node_name(self):
        b = GraphBuilder("bad", seed=0)
        x = b.input("x", (1, 4))
        y = b.node("Reshape", [x], shape=[7, 7])  # impossible reshape
        b.output(y)
        model = b.build(validate=False, infer=False)
        with pytest.raises(ExecutionError, match="Reshape"):
            execute_model(model, {"x": np.zeros((1, 4), dtype=np.float32)})


class TestProfiler:
    def test_profile_model_collects_all_nodes(self, diamond_model, rng):
        x = rng.standard_normal((1, 3, 16, 16)).astype(np.float32)
        profile = profile_model(diamond_model, {"x": x}, num_runs=2, warmup=1)
        assert len(profile.ops) == diamond_model.num_nodes
        assert profile.total_compute_s() > 0
        assert profile.num_runs == 2

    def test_cost_provider_scaling(self, diamond_model, rng):
        x = rng.standard_normal((1, 3, 16, 16)).astype(np.float32)
        profile = profile_model(diamond_model, {"x": x}, num_runs=1)
        provider = profile.cost_provider(scale=1e6)
        assert set(provider) == set(profile.ops)
        assert all(v >= 0 for v in provider.values())

    def test_slowest_and_by_op_type(self, diamond_model, rng):
        x = rng.standard_normal((1, 3, 16, 16)).astype(np.float32)
        profile = profile_model(diamond_model, {"x": x}, num_runs=1)
        slowest = profile.slowest(3)
        assert len(slowest) == 3
        assert slowest[0].mean_s >= slowest[-1].mean_s
        assert "Conv" in profile.by_op_type()


class TestChannels:
    def test_factories(self):
        names = ["a", "b"]
        threads = make_thread_channels(names)
        assert set(threads) == set(names)
        threads["a"].put(42)
        assert threads["a"].get() == 42
