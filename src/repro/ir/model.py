"""Graph and Model containers — the IR analogues of ONNX GraphProto/ModelProto."""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set

import numpy as np

from repro.ir.node import OpNode
from repro.ir.tensor import TensorInfo
from repro.ir.dtypes import numpy_to_dtype


@dataclasses.dataclass
class Graph:
    """A dataflow graph: operator nodes plus the values flowing between them.

    Attributes
    ----------
    name:
        Human-readable graph name (usually the model name).
    nodes:
        Operator nodes in (not necessarily topological) order.
    inputs:
        Graph-level inputs (activations fed at inference time).
    outputs:
        Graph-level outputs.
    initializers:
        Mapping value-name -> numpy array for weights and embedded constants.
        A value present here is *not* expected to appear as a graph input.
    value_info:
        Optional shape/type annotations for intermediate values (filled in
        by :func:`repro.ir.shape_inference.infer_shapes`).
    """

    name: str = "graph"
    nodes: List[OpNode] = dataclasses.field(default_factory=list)
    inputs: List[TensorInfo] = dataclasses.field(default_factory=list)
    outputs: List[TensorInfo] = dataclasses.field(default_factory=list)
    initializers: Dict[str, np.ndarray] = dataclasses.field(default_factory=dict)
    value_info: Dict[str, TensorInfo] = dataclasses.field(default_factory=dict)

    # ------------------------------------------------------------------
    # Node management
    # ------------------------------------------------------------------
    def add_node(self, node: OpNode) -> OpNode:
        """Append a node to the graph and return it."""
        self.nodes.append(node)
        return node

    def remove_nodes(self, names: Iterable[str]) -> int:
        """Remove all nodes whose name is in ``names``; returns count removed."""
        doomed = set(names)
        before = len(self.nodes)
        self.nodes = [n for n in self.nodes if n.name not in doomed]
        return before - len(self.nodes)

    def node_by_name(self, name: str) -> OpNode:
        """Look up a node by its unique name."""
        for node in self.nodes:
            if node.name == name:
                return node
        raise KeyError(f"no node named {name!r} in graph {self.name!r}")

    def __iter__(self) -> Iterator[OpNode]:
        return iter(self.nodes)

    def __len__(self) -> int:
        return len(self.nodes)

    # ------------------------------------------------------------------
    # Value management
    # ------------------------------------------------------------------
    def add_initializer(self, name: str, array: np.ndarray) -> TensorInfo:
        """Register a weight/constant tensor and return its TensorInfo."""
        array = np.asarray(array)
        self.initializers[name] = array
        info = TensorInfo(name, numpy_to_dtype(array.dtype), array.shape)
        self.value_info[name] = info
        return info

    @property
    def input_names(self) -> List[str]:
        """Names of the graph inputs."""
        return [i.name for i in self.inputs]

    @property
    def output_names(self) -> List[str]:
        """Names of the graph outputs."""
        return [o.name for o in self.outputs]

    def tensor_info(self, name: str) -> Optional[TensorInfo]:
        """Best-known :class:`TensorInfo` for any value name, if recorded.

        An inferred annotation wins over a graph output's declaration,
        which is written before anything is known about the value (the
        builder declares every output float32).
        """
        for info in self.inputs:
            if info.name == name:
                return info
        inferred = self.value_info.get(name)
        if inferred is not None:
            return inferred
        for info in self.outputs:
            if info.name == name:
                return info
        return None

    # ------------------------------------------------------------------
    # Derived structure
    # ------------------------------------------------------------------
    def producers(self) -> Dict[str, OpNode]:
        """Map from value name to the node that produces it."""
        result: Dict[str, OpNode] = {}
        for node in self.nodes:
            for out in node.outputs:
                result[out] = node
        return result

    def consumers(self) -> Dict[str, List[OpNode]]:
        """Map from value name to the nodes that consume it."""
        result: Dict[str, List[OpNode]] = {}
        for node in self.nodes:
            for inp in node.present_inputs:
                result.setdefault(inp, []).append(node)
        return result

    def all_value_names(self) -> Set[str]:
        """Every value name referenced anywhere in the graph."""
        names: Set[str] = set(self.initializers)
        names.update(self.input_names)
        names.update(self.output_names)
        for node in self.nodes:
            names.update(node.present_inputs)
            names.update(node.outputs)
        return names

    def op_type_histogram(self) -> Dict[str, int]:
        """Count of nodes per op_type (useful for model-zoo sanity checks)."""
        hist: Dict[str, int] = {}
        for node in self.nodes:
            hist[node.op_type] = hist.get(node.op_type, 0) + 1
        return dict(sorted(hist.items()))

    # ------------------------------------------------------------------
    # Copying / serialization
    # ------------------------------------------------------------------
    def copy(self) -> "Graph":
        """Deep copy of the graph (initializers share no storage)."""
        return Graph(
            name=self.name,
            nodes=[n.copy() for n in self.nodes],
            inputs=list(self.inputs),
            outputs=list(self.outputs),
            initializers={k: v.copy() for k, v in self.initializers.items()},
            value_info=dict(self.value_info),
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Graph({self.name!r}, nodes={len(self.nodes)}, "
            f"inputs={self.input_names}, outputs={self.output_names})"
        )


@dataclasses.dataclass
class Model:
    """Top-level model container (graph + metadata), analogue of ModelProto."""

    graph: Graph
    name: str = ""
    producer: str = "repro"
    opset_version: int = 17
    doc: str = ""
    metadata: Dict[str, str] = dataclasses.field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.name:
            self.name = self.graph.name

    def with_graph(self, graph: Graph) -> "Model":
        """This model around a transformed ``graph``.

        Metadata under the ``ramiel.`` namespace is derived from the graph
        (the memoised content fingerprint) and is not carried over.
        """
        metadata = {key: value for key, value in self.metadata.items()
                    if not key.startswith("ramiel.")}
        return dataclasses.replace(self, graph=graph, metadata=metadata)

    def copy(self) -> "Model":
        """Deep copy of the model."""
        return self.with_graph(self.graph.copy())

    @property
    def num_nodes(self) -> int:
        """Number of operator nodes in the underlying graph."""
        return len(self.graph.nodes)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Model({self.name!r}, nodes={self.num_nodes})"
