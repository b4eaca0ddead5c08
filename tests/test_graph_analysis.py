"""Tests for the dataflow graph, traversal, cost model, critical path and metrics."""

from __future__ import annotations

import pytest

from repro.graph import (
    DEFAULT_COST_MODEL,
    CostModel,
    compute_distance_to_end,
    compute_metrics,
    critical_path,
    critical_path_length,
    graph_levels,
    model_to_dataflow,
    potential_parallelism,
    topological_sort,
)
from repro.graph.critical_path import compute_distance_from_start, path_cost
from repro.graph.dataflow import DataflowGraph
from repro.graph.traversal import CycleError, descendants, reaches
from repro.graph.visualize import clusters_to_dot, to_dot
from repro.ir.node import OpNode

from tests.conftest import make_dataflow


# ---------------------------------------------------------------------------
# DataflowGraph structure
# ---------------------------------------------------------------------------
class TestDataflowGraph:
    def test_add_and_query(self):
        dfg = make_dataflow([("a", "b"), ("b", "c"), ("a", "c")])
        assert len(dfg) == 3
        assert dfg.num_edges() == 3
        assert dfg.successors("a") == ["b", "c"]
        assert dfg.predecessors("c") == ["b", "a"]
        assert dfg.source_nodes() == ["a"]
        assert dfg.sink_nodes() == ["c"]

    def test_duplicate_node_rejected(self):
        dfg = DataflowGraph()
        dfg.add_node("a")
        with pytest.raises(ValueError):
            dfg.add_node("a")

    def test_self_edge_rejected(self):
        dfg = DataflowGraph()
        dfg.add_node("a")
        with pytest.raises(ValueError):
            dfg.add_edge("a", "a")

    def test_edge_to_unknown_node_rejected(self):
        dfg = DataflowGraph()
        dfg.add_node("a")
        with pytest.raises(KeyError):
            dfg.add_edge("a", "ghost")

    def test_remove_node_cleans_edges(self):
        dfg = make_dataflow([("a", "b"), ("b", "c")])
        dfg.remove_node("b")
        assert dfg.successors("a") == []
        assert dfg.predecessors("c") == []

    def test_copy_and_subgraph(self):
        dfg = make_dataflow([("a", "b"), ("b", "c")])
        clone = dfg.copy()
        clone.remove_node("c")
        assert "c" in dfg
        sub = dfg.subgraph(["a", "b"])
        assert len(sub) == 2 and sub.num_edges() == 1

    def test_to_networkx(self):
        dfg = make_dataflow([("a", "b")], costs={"a": 2.0})
        g = dfg.to_networkx()
        assert g.number_of_nodes() == 2
        assert g.nodes["a"]["cost"] == 2.0

    def test_model_conversion_edges(self, diamond_model):
        dfg = model_to_dataflow(diamond_model)
        assert len(dfg) == diamond_model.num_nodes
        # The stem relu feeds both branches: out-degree 2 somewhere.
        assert max(dfg.out_degree(n) for n in dfg.node_names()) >= 2


# ---------------------------------------------------------------------------
# traversal
# ---------------------------------------------------------------------------
class TestTraversal:
    def test_topological_order_respects_edges(self):
        dfg = make_dataflow([("a", "b"), ("b", "c"), ("a", "d"), ("d", "c")])
        order = topological_sort(dfg)
        assert order.index("a") < order.index("b") < order.index("c")
        assert order.index("d") < order.index("c")

    def test_cycle_detected(self):
        dfg = DataflowGraph()
        for n in "abc":
            dfg.add_node(n)
        dfg.add_edge("a", "b")
        dfg.add_edge("b", "c")
        # create a cycle directly in the adjacency structures
        dfg.add_edge("c", "a")
        with pytest.raises(CycleError):
            topological_sort(dfg)

    def test_ancestors_descendants(self):
        dfg = make_dataflow([("a", "b"), ("b", "c"), ("x", "c")])
        assert descendants(dfg, "a") == {"b", "c"}
        assert reaches(dfg, ["b"]) == {"a", "b"}

    def test_levels(self):
        dfg = make_dataflow([("a", "b"), ("b", "c"), ("a", "c")])
        levels = graph_levels(dfg)
        assert levels == {"a": 0, "b": 1, "c": 2}


# ---------------------------------------------------------------------------
# cost model
# ---------------------------------------------------------------------------
class TestCostModel:
    def test_elementwise_costs_one(self):
        cm = CostModel()
        assert cm.node_cost(OpNode("Relu", ["x"], ["y"])) == 1.0
        assert cm.node_cost(OpNode("Add", ["a", "b"], ["c"])) == 1.0

    def test_shape_ops_cost_zero(self):
        cm = CostModel()
        assert cm.node_cost(OpNode("Shape", ["x"], ["y"])) == 0.0
        assert cm.node_cost(OpNode("Identity", ["x"], ["y"])) == 0.0

    def test_conv_kernel_buckets(self):
        cm = CostModel(conv_channel_scaling=False)
        small = OpNode.create("Conv", ["x", "w"], ["y"], kernel_shape=[1, 1])
        big = OpNode.create("Conv", ["x", "w"], ["y"], kernel_shape=[7, 7])
        assert cm.node_cost(big) > cm.node_cost(small)

    def test_conv_larger_than_biggest_bucket(self):
        cm = CostModel(conv_channel_scaling=False)
        huge = OpNode.create("Conv", ["x", "w"], ["y"], kernel_shape=[13, 13])
        assert cm.node_cost(huge) == max(cm.conv_kernel_costs.values())

    def test_depthwise_discount(self):
        cm = CostModel(conv_channel_scaling=False)
        dense = OpNode.create("Conv", ["x", "w"], ["y"], kernel_shape=[3, 3], group=1)
        depthwise = OpNode.create("Conv", ["x", "w"], ["y"], kernel_shape=[3, 3], group=16)
        assert cm.node_cost(depthwise) < cm.node_cost(dense)

    def test_override_wins(self):
        cm = DEFAULT_COST_MODEL.with_overrides(Relu=42.0)
        assert cm.node_cost(OpNode("Relu", ["x"], ["y"])) == 42.0

    def test_gemm_flops_scaling(self, diamond_model):
        graph = diamond_model.graph
        gemm = next(n for n in graph.nodes if n.op_type == "Gemm")
        cost = DEFAULT_COST_MODEL.node_cost(gemm, graph)
        assert cost >= 2.0

    def test_unregistered_op_uses_default(self):
        cm = CostModel()
        assert cm.node_cost(OpNode("MyCustomOp", ["x"], ["y"])) == cm.default_cost


# ---------------------------------------------------------------------------
# critical path / parallelism
# ---------------------------------------------------------------------------
class TestCriticalPath:
    def test_chain_distance(self):
        dfg = make_dataflow([("a", "b"), ("b", "c")], costs={"a": 1, "b": 2, "c": 3})
        dist = compute_distance_to_end(dfg)
        # c: 3; b: 2 + 1(edge) + 3 = 6; a: 1 + 1 + 6 = 8
        assert dist == {"c": 3.0, "b": 6.0, "a": 8.0}
        fwd = compute_distance_from_start(dfg)
        assert fwd["c"] == 8.0

    def test_critical_path_picks_heavier_branch(self):
        dfg = make_dataflow(
            [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")],
            costs={"a": 1, "b": 10, "c": 1, "d": 1},
        )
        path = critical_path(dfg)
        assert path == ["a", "b", "d"]
        assert critical_path_length(dfg) == pytest.approx(1 + 1 + 10 + 1 + 1)
        assert path_cost(dfg, path) == critical_path_length(dfg)

    def test_empty_graph(self):
        dfg = DataflowGraph()
        assert critical_path(dfg) == []
        assert critical_path_length(dfg) == 0.0

    def test_parallelism_chain_below_one(self, chain_model):
        report = potential_parallelism(chain_model)
        assert report.parallelism < 1.0

    def test_parallelism_wide_above_one(self, wide_model):
        report = potential_parallelism(wide_model)
        assert report.parallelism > 1.0

    def test_parallelism_definition(self, diamond_model):
        report = potential_parallelism(diamond_model)
        assert report.parallelism == pytest.approx(
            report.total_node_cost / report.critical_path_cost)

    def test_metrics_rows(self, diamond_model):
        metrics = compute_metrics(diamond_model)
        row = metrics.as_row()
        assert row["nodes"] == diamond_model.num_nodes
        assert row["max_fan_out"] >= 2
        assert metrics.depth >= 4


# ---------------------------------------------------------------------------
# visualization
# ---------------------------------------------------------------------------
class TestVisualize:
    def test_dot_contains_nodes_and_edges(self, diamond_dfg):
        dot = to_dot(diamond_dfg)
        assert "digraph" in dot
        assert "->" in dot
        for node in diamond_dfg.node_names()[:3]:
            assert node in dot

    def test_cluster_coloring(self, diamond_dfg):
        from repro.clustering import linear_clustering

        clustering = linear_clustering(diamond_dfg)
        dot = clusters_to_dot(diamond_dfg, clustering.clusters)
        assert "fillcolor" in dot
