"""Potential-parallelism factor (Section III-A, Table I).

The paper defines::

    Parallelism = Wt.Cost of Nodes / Wt.Cost of Critical Path

where the node cost is the sum of static operator weights and the critical
path cost additionally charges a unit cost per edge along the path.  For
small graphs with long dependency chains the factor can be below 1 —
Squeezenet's 0.86x is the canonical example — predicting a slowdown when
the graph is parallelized.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional, Tuple

from repro.graph.cost_model import CostModel, DEFAULT_COST_MODEL
from repro.graph.critical_path import (
    compute_distance_to_end,
    critical_path,
    critical_path_length,
    path_cost,
)
from repro.graph.dataflow import DataflowGraph, model_to_dataflow
from repro.ir.model import Model


@dataclasses.dataclass(frozen=True)
class ParallelismReport:
    """Summary of the potential parallelism available in one dataflow graph."""

    model_name: str
    num_nodes: int
    num_edges: int
    total_node_cost: float
    critical_path_cost: float
    critical_path_nodes: int

    @property
    def parallelism(self) -> float:
        """The potential-parallelism factor (Table I's ``||ism`` column)."""
        if self.critical_path_cost <= 0:
            return float("inf") if self.total_node_cost > 0 else 1.0
        return self.total_node_cost / self.critical_path_cost

    def as_row(self) -> dict:
        """Row in the shape of Table I."""
        return {
            "model": self.model_name,
            "nodes": self.num_nodes,
            "wt_node_cost": round(self.total_node_cost, 1),
            "wt_cp": round(self.critical_path_cost, 1),
            "parallelism": round(self.parallelism, 2),
        }


def potential_parallelism(
    source,
    cost_model: Optional[CostModel] = None,
    include_edge_cost: bool = True,
) -> ParallelismReport:
    """Compute the potential-parallelism report for a model or dataflow graph.

    Parameters
    ----------
    source:
        An IR :class:`Model` (converted with the given cost model) or an
        already-built :class:`DataflowGraph`.
    cost_model:
        Static cost model; defaults to the paper's weights.
    include_edge_cost:
        Charge unit edge cost on the critical path (paper behaviour).
    """
    cm = cost_model or DEFAULT_COST_MODEL
    if isinstance(source, DataflowGraph):
        dfg = source
    elif isinstance(source, Model):
        dfg = model_to_dataflow(source, cost_model=cm)
    else:
        raise TypeError(f"expected Model or DataflowGraph, got {type(source)!r}")
    return parallelism_and_distances(dfg, include_edge_cost)[0]


def parallelism_and_distances(
    dfg: DataflowGraph,
    include_edge_cost: bool = True,
) -> Tuple[ParallelismReport, Dict[str, float]]:
    """:func:`potential_parallelism` of ``dfg`` and the ``distance_to_end``
    table it was computed from (linear clustering walks the same table)."""
    dist = compute_distance_to_end(dfg, include_edge_cost)
    cp_nodes = critical_path(dfg, dist, include_edge_cost)
    cp_cost = path_cost(dfg, cp_nodes, include_edge_cost=include_edge_cost)
    # The true CP length may exceed the greedy path's cost in rare tie cases;
    # use the DP value as ground truth but keep the node count of the path.
    cp_cost = max(cp_cost, critical_path_length(dfg, include_edge_cost, dist))
    report = ParallelismReport(
        model_name=dfg.name,
        num_nodes=len(dfg),
        num_edges=dfg.num_edges(),
        total_node_cost=dfg.total_cost(),
        critical_path_cost=cp_cost,
        critical_path_nodes=len(cp_nodes),
    )
    return report, dist
