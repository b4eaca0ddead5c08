"""Restricted task cloning (Section III-D).

Cloning replicates a node that feeds several consumers so that each
consumer (ultimately: each cluster) computes its own private copy instead
of waiting for a message from another cluster.  It trades redundant
computation for reduced communication and longer independent paths, and —
as the paper stresses — must be applied sparingly because aggressive
cloning blows the graph up exponentially.  Following the paper we restrict
cloning to cheap nodes in the *top half* of the graph (early layers, where
fan-out points such as the stem of Inception live, cf. Fig. 7).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional

from repro.graph.cost_model import CostModel, DEFAULT_COST_MODEL
from repro.graph.traversal import topological_sort_nodes
from repro.ir.model import Graph, Model


@dataclasses.dataclass
class CloningReport:
    """Summary of one cloning run."""

    candidates: int
    nodes_cloned: int
    clones_created: int
    nodes_before: int
    nodes_after: int

    @property
    def growth_ratio(self) -> float:
        """Graph-size growth caused by cloning (1.0 = unchanged)."""
        if self.nodes_before == 0:
            return 1.0
        return self.nodes_after / self.nodes_before


def clone_cheap_producers(
    model: Model,
    cost_model: Optional[CostModel] = None,
    max_node_cost: float = 4.0,
    top_fraction: float = 0.5,
    max_fan_out: int = 6,
    max_clones: int = 64,
) -> tuple:
    """Clone cheap, high-fan-out nodes in the top part of the graph.

    Parameters
    ----------
    model:
        The IR model to transform.  The input is untouched: the result has
        its own node list and shares the weight arrays and every node that
        cloning did not re-point.
    cost_model:
        Static cost model used to decide which nodes are "cheap".
    max_node_cost:
        Only nodes with static cost <= this threshold are cloned.
    top_fraction:
        Only nodes whose ASAP level lies within the first ``top_fraction`` of
        the graph's depth are considered (the paper clones "mostly at the top
        half of the dataflow graphs").
    max_fan_out:
        Nodes with more consumers than this are skipped (cloning them would
        multiply the graph too much).
    max_clones:
        Global cap on the number of clone nodes created.

    Returns
    -------
    (Model, CloningReport)
    """
    cm = cost_model or DEFAULT_COST_MODEL
    graph = model.graph

    # ASAP level: the longest hop-distance from a node without producers.
    producers = graph.producers()
    levels: Dict[str, int] = {}
    for node in topological_sort_nodes(graph):
        above = [levels[producers[value].name] for value in node.inputs
                 if value and value in producers and producers[value] is not node]
        levels[node.name] = 1 + max(above, default=-1)
    depth = max(levels.values()) + 1 if levels else 1
    level_cutoff = depth * top_fraction

    consumers = graph.consumers()
    graph_outputs = set(graph.output_names)

    candidates: List[str] = []
    for node in graph.nodes:
        out_degree = sum(len(consumers.get(out, [])) for out in node.outputs if out)
        if out_degree < 2 or out_degree > max_fan_out:
            continue
        if any(out in graph_outputs for out in node.outputs):
            continue
        if len([o for o in node.outputs if o]) != 1:
            continue  # multi-output nodes (Split/TopK) are not worth the complexity
        if levels.get(node.name, depth) > level_cutoff:
            continue
        if cm.node_cost(node, graph) > max_node_cost:
            continue
        candidates.append(node.name)

    clones_created = 0
    nodes_cloned = 0
    #: the result's nodes, in order; a consumer is copied before it is re-pointed
    nodes = {n.name: n for n in graph.nodes}
    value_info = dict(graph.value_info)

    for name in candidates:
        if clones_created >= max_clones:
            break
        node = nodes[name]
        out_value = node.primary_output
        users = list(consumers.get(out_value, []))
        if len(users) < 2:
            continue
        nodes_cloned += 1
        # The first consumer keeps the original node; every other consumer
        # gets its own clone.
        for idx, user in enumerate(users[1:], start=1):
            if clones_created >= max_clones:
                break
            clone_name = f"{node.name}__clone{idx}"
            clone_out = f"{out_value}__clone{idx}"
            clone = node.copy(name=clone_name)
            clone.outputs = [clone_out]
            nodes[clone_name] = clone
            if nodes[user.name] is user:
                nodes[user.name] = user.copy()
            nodes[user.name].rename_input(out_value, clone_out)
            if out_value in value_info:
                value_info[clone_out] = value_info[out_value].with_name(clone_out)
            clones_created += 1

    report = CloningReport(
        candidates=len(candidates),
        nodes_cloned=nodes_cloned,
        clones_created=clones_created,
        nodes_before=model.num_nodes,
        nodes_after=len(nodes),
    )
    cloned = Graph(name=graph.name, nodes=list(nodes.values()), inputs=list(graph.inputs),
                   outputs=list(graph.outputs), initializers=dict(graph.initializers),
                   value_info=value_info)
    return model.with_graph(cloned), report
