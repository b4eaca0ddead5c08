"""The internal dataflow-graph representation used by all analyses.

The paper's *Graph creation pass* "converts an input ONNX model into an
internal representation"; :func:`model_to_dataflow` is that pass.  Each IR
operator node becomes a :class:`DFNode` carrying a static cost, and each
tensor dependence between a producer and a consumer becomes a
:class:`DFEdge` labelled with the tensor name and (when known) its size.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Set, Tuple

from repro.ir.model import Graph, Model
from repro.ir.node import OpNode


@dataclasses.dataclass
class DFNode:
    """One task (operator invocation) of the dataflow graph."""

    name: str
    op_type: str
    cost: float = 1.0
    index: int = 0
    op_node: Optional[OpNode] = None
    #: optional tag identifying which batch-sample replica this node belongs
    #: to (used by hyperclustering); 0 for the original graph.
    replica: int = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DFNode({self.name!r}, {self.op_type}, cost={self.cost:g})"


class DFEdge(NamedTuple):
    """A tensor dependence between two tasks."""

    src: str
    dst: str
    tensor: str = ""
    nbytes: int = 0
    cost: float = 1.0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DFEdge({self.src} -> {self.dst}, tensor={self.tensor!r})"


class DataflowGraph:
    """A directed acyclic graph of tasks with weighted nodes and edges.

    The structure is deliberately explicit (ordered dictionaries for nodes
    and adjacency) so that the clustering algorithms are deterministic: ties
    are always broken by node insertion index.
    """

    def __init__(self, name: str = "dataflow") -> None:
        self.name = name
        self._nodes: Dict[str, DFNode] = {}
        self._succ: Dict[str, List[DFEdge]] = {}
        self._pred: Dict[str, List[DFEdge]] = {}
        self._next_index = 0
        #: the IR graph this dataflow graph was derived from, when available
        self.ir_graph: Optional[Graph] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_node(
        self,
        name: str,
        op_type: str = "Generic",
        cost: float = 1.0,
        op_node: Optional[OpNode] = None,
        replica: int = 0,
    ) -> DFNode:
        """Add a task node; names must be unique."""
        if name in self._nodes:
            raise ValueError(f"node {name!r} already present in dataflow graph")
        node = DFNode(name=name, op_type=op_type, cost=float(cost),
                      index=self._next_index, op_node=op_node, replica=replica)
        self._next_index += 1
        self._nodes[name] = node
        self._succ[name] = []
        self._pred[name] = []
        return node

    def add_edge(self, src: str, dst: str, tensor: str = "", nbytes: int = 0,
                 cost: float = 1.0) -> DFEdge:
        """Add a dependence edge between two existing nodes."""
        if src not in self._nodes:
            raise KeyError(f"unknown source node {src!r}")
        if dst not in self._nodes:
            raise KeyError(f"unknown destination node {dst!r}")
        if src == dst:
            raise ValueError(f"self edge on node {src!r} is not allowed")
        edge = DFEdge(src, dst, tensor, int(nbytes), float(cost))
        self._succ[src].append(edge)
        self._pred[dst].append(edge)
        return edge

    def has_edge(self, src: str, dst: str) -> bool:
        """True when a direct edge src -> dst exists."""
        return any(e.dst == dst for e in self._succ.get(src, ()))

    def remove_node(self, name: str) -> None:
        """Remove a node and all edges touching it."""
        if name not in self._nodes:
            raise KeyError(f"unknown node {name!r}")
        for edge in list(self._succ[name]):
            self._pred[edge.dst] = [e for e in self._pred[edge.dst] if e.src != name]
        for edge in list(self._pred[name]):
            self._succ[edge.src] = [e for e in self._succ[edge.src] if e.dst != name]
        del self._nodes[name]
        del self._succ[name]
        del self._pred[name]

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __contains__(self, name: str) -> bool:
        return name in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    def __iter__(self) -> Iterator[DFNode]:
        return iter(self._nodes.values())

    def node(self, name: str) -> DFNode:
        """Return the node with the given name."""
        return self._nodes[name]

    def nodes(self) -> List[DFNode]:
        """All nodes in insertion order."""
        return list(self._nodes.values())

    def node_names(self) -> List[str]:
        """All node names in insertion order."""
        return list(self._nodes)

    def edges(self) -> List[DFEdge]:
        """All edges (in source-insertion order)."""
        return [e for edges in self._succ.values() for e in edges]

    def num_edges(self) -> int:
        """Total number of dependence edges."""
        return sum(len(v) for v in self._succ.values())

    def successors(self, name: str) -> List[str]:
        """Names of direct successors (dependents)."""
        return [e.dst for e in self._succ[name]]

    def predecessors(self, name: str) -> List[str]:
        """Names of direct predecessors (dependences)."""
        return [e.src for e in self._pred[name]]

    def out_edges(self, name: str) -> List[DFEdge]:
        """Outgoing edges of a node."""
        return list(self._succ[name])

    def in_edges(self, name: str) -> List[DFEdge]:
        """Incoming edges of a node."""
        return list(self._pred[name])

    def in_degree(self, name: str) -> int:
        """Number of incoming edges."""
        return len(self._pred[name])

    def out_degree(self, name: str) -> int:
        """Number of outgoing edges."""
        return len(self._succ[name])

    def source_nodes(self) -> List[str]:
        """Nodes with no predecessors (graph entry points)."""
        return [n for n in self._nodes if not self._pred[n]]

    def sink_nodes(self) -> List[str]:
        """Nodes with no successors (graph exits)."""
        return [n for n in self._nodes if not self._succ[n]]

    def total_cost(self) -> float:
        """Sum of all node costs (the paper's ``Wt.Cost of Nodes``)."""
        return float(sum(node.cost for node in self._nodes.values()))

    def op_type_histogram(self) -> Dict[str, int]:
        """Count of nodes per op type."""
        hist: Dict[str, int] = {}
        for node in self._nodes.values():
            hist[node.op_type] = hist.get(node.op_type, 0) + 1
        return dict(sorted(hist.items()))

    # ------------------------------------------------------------------
    # Copies / derived graphs
    # ------------------------------------------------------------------
    def copy(self, name: Optional[str] = None) -> "DataflowGraph":
        """Structural deep copy (node objects are re-created)."""
        out = DataflowGraph(name or self.name)
        out.ir_graph = self.ir_graph
        for node in self._nodes.values():
            out.add_node(node.name, node.op_type, node.cost, node.op_node, node.replica)
        for edge in self.edges():
            out.add_edge(edge.src, edge.dst, edge.tensor, edge.nbytes, edge.cost)
        return out

    def subgraph(self, names: Iterable[str], name: Optional[str] = None) -> "DataflowGraph":
        """Induced subgraph over the given node names."""
        keep: Set[str] = set(names)
        out = DataflowGraph(name or f"{self.name}_sub")
        out.ir_graph = self.ir_graph
        for node in self._nodes.values():
            if node.name in keep:
                out.add_node(node.name, node.op_type, node.cost, node.op_node, node.replica)
        for edge in self.edges():
            if edge.src in keep and edge.dst in keep:
                out.add_edge(edge.src, edge.dst, edge.tensor, edge.nbytes, edge.cost)
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"DataflowGraph({self.name!r}, nodes={len(self)}, "
                f"edges={self.num_edges()})")


def model_to_dataflow(model_or_graph, cost_model=None) -> DataflowGraph:
    """Convert an IR :class:`Model`/:class:`Graph` into a :class:`DataflowGraph`.

    This is the paper's *Graph creation pass*.  Edges are created for every
    producer/consumer tensor dependence between operator nodes; graph inputs
    and initializers do not become nodes (they are available "for free" at
    execution start, matching the paper's treatment of weights).

    Parameters
    ----------
    model_or_graph:
        The IR model (or bare graph) to convert.
    cost_model:
        A :class:`repro.graph.cost_model.CostModel`; defaults to the paper's
        static weights.
    """
    from repro.graph.cost_model import DEFAULT_COST_MODEL

    graph: Graph = model_or_graph.graph if isinstance(model_or_graph, Model) else model_or_graph
    cm = cost_model or DEFAULT_COST_MODEL

    dfg = DataflowGraph(name=graph.name)
    dfg.ir_graph = graph

    for op in graph.nodes:
        dfg.add_node(op.name, op.op_type, cost=cm.node_cost(op, graph), op_node=op)

    # graph.tensor_info's precedence: inputs, then value_info, then
    # outputs; reversed so that the first of a repeated name wins.
    infos = {info.name: info for info in reversed(graph.outputs)}
    infos.update(graph.value_info)
    infos.update((info.name, info) for info in reversed(graph.inputs))
    producers = graph.producers()
    linked: Set[Tuple[str, str]] = set()
    for op in graph.nodes:
        name = op.name
        for inp in op.inputs:
            producer = producers.get(inp) if inp else None
            if producer is None or producer.name == name or (producer.name, name) in linked:
                continue
            linked.add((producer.name, name))
            info = infos.get(inp)
            nbytes = info.nbytes if info is not None and info.nbytes is not None else 0
            dfg.add_edge(producer.name, name, tensor=inp, nbytes=nbytes,
                         cost=cm.edge_cost(nbytes))
    return dfg
