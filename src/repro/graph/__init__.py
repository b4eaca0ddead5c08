"""Dataflow-graph analysis layer.

This package converts IR models into a :class:`DataflowGraph` (the paper's
"internal in-memory graph format" produced by the Model2Graph converter in
Fig. 10) and provides the analyses the clustering algorithms rely on:

* topological traversal utilities,
* the static weighted cost model of Section III-A,
* the ``distance_to_end`` pass and critical-path extraction,
* the potential-parallelism factor of Table I,
* per-model graph metric reports,
* DOT export for visual inspection.
"""

from repro.graph.dataflow import DataflowGraph, DFNode, DFEdge, model_to_dataflow
from repro.graph.traversal import (
    topological_sort,
    topological_sort_nodes,
    descendants,
    graph_levels,
)
from repro.graph.cost_model import CostModel, DEFAULT_COST_MODEL
from repro.graph.critical_path import (
    compute_distance_to_end,
    compute_distance_from_start,
    critical_path,
    critical_path_length,
)
from repro.graph.parallelism import potential_parallelism, ParallelismReport
from repro.graph.metrics import GraphMetrics, compute_metrics, metrics_table

__all__ = [
    "DataflowGraph",
    "DFNode",
    "DFEdge",
    "model_to_dataflow",
    "topological_sort",
    "topological_sort_nodes",
    "descendants",
    "graph_levels",
    "CostModel",
    "DEFAULT_COST_MODEL",
    "compute_distance_to_end",
    "compute_distance_from_start",
    "critical_path",
    "critical_path_length",
    "potential_parallelism",
    "ParallelismReport",
    "GraphMetrics",
    "compute_metrics",
    "metrics_table",
]
