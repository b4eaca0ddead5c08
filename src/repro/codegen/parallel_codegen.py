"""Parallel code generation (Algorithm 4).

For every cluster Ramiel emits one Python function.  Inside a cluster
function the nodes execute in the cluster's order; every tensor dependence
whose producer lives in a *different* cluster becomes a ``channels[...].get()``
immediately before the consuming statement, and every value consumed by a
*different* cluster is ``put()`` on the corresponding channel immediately
after it is produced — exactly the structure of the paper's Fig. 11 snippet.

The generated module is plain, readable Python with no dependency beyond
numpy and :mod:`repro.runtime.functional`; the runtime that keeps one Python
process (or thread) per cluster lives in :mod:`repro.runtime.worker_pool`.
A statement is printed exactly as in the sequential module, ``out=out[i]``
included (``i`` is the node's index in the model's topological order), so
a cluster function run standalone allocates every intermediate, while a
warm worker passes a table of views into its own liveness-packed slab.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Set

from repro.clustering.cluster import Clustering
from repro.codegen.emitter import CodeEmitter
from repro.codegen.op_lowering import lower_node
from repro.codegen.sequential_codegen import (
    DESTINATION_PARAMETERS_DOC,
    destination_table_header,
    destination_table_prologue,
)
from repro.codegen.ssa import SSANamer
from repro.graph.traversal import topological_sort_nodes
from repro.ir.model import Graph, Model
from repro.ir.node import OpNode
from repro.runtime.channels import channel_name


class _ClusterCodegen:
    """Generates one cluster function."""

    def __init__(self, graph: Graph, clustering: Clustering, cluster_index: int,
                 node_of: Dict[str, object], owner: Dict[str, int],
                 lower: Callable[..., List[str]], slots: Dict[str, int]) -> None:
        self.graph = graph
        self.lower = lower
        self.slots = slots
        self.clustering = clustering
        self.cluster = clustering.clusters[cluster_index]
        self.cluster_index = cluster_index
        self.node_of = node_of
        self.owner = owner
        self.namer = SSANamer()
        self.received: Set[str] = set()
        #: graph inputs this cluster's function reads, in first-use order
        self.graph_inputs_read: List[str] = []

    # ------------------------------------------------------------------
    def _producer_cluster(self, value: str) -> Optional[int]:
        producer = self.producers.get(value)
        if producer is None:
            return None
        return self.owner[producer]

    def _value_expr(self, value: str) -> str:
        if value in self.namer or value in self.received:
            return self.namer.name_for(value)
        if value in self.graph.initializers:
            return f"weights[{value!r}]"
        if value in self.graph.input_names:
            if value not in self.graph_inputs_read:
                self.graph_inputs_read.append(value)
            return f"inputs[{value!r}]"
        return self.namer.name_for(value)

    # ------------------------------------------------------------------
    def emit(self, em: CodeEmitter, producers: Dict[str, str],
             consumers_of: Dict[str, List[str]], outputs_needed: Set[str]) -> List[str]:
        """Emit the cluster function; returns graph outputs produced here."""
        self.producers = producers
        cluster_id = self.cluster.cluster_id
        produced_graph_outputs: List[str] = []

        with em.block(f"def cluster_{self.cluster_index}"
                      "(inputs, weights, channels, out=None, ws=None):"):
            em.docstring(
                f"Cluster {cluster_id} of model {self.graph.name!r} "
                f"({len(self.cluster.nodes)} operations).\n\n"
                "Receives remote tensors with ``channels[...].get()`` right before\n"
                "they are needed and sends locally produced tensors consumed by\n"
                "other clusters with ``channels[...].put()`` right after producing\n"
                "them (Algorithm 4).\n\n"
                + DESTINATION_PARAMETERS_DOC
            )
            destination_table_prologue(em)
            for node_name in self.cluster.nodes:
                node = self.node_of[node_name]

                # Receive every remote dependence of this node that has not
                # been received by this cluster yet.
                for value in node.present_inputs:
                    producer = producers.get(value)
                    if producer is None:
                        continue  # graph input or initializer
                    src_cluster = self.owner[producer]
                    if src_cluster == cluster_id or value in self.received:
                        continue
                    var = self.namer.name_for(value)
                    chan = channel_name(value, src_cluster, cluster_id)
                    em.line(f"{var} = channels[{chan!r}].get()"
                            f"  # recv {value!r} from cluster {src_cluster}")
                    self.received.add(value)

                input_exprs = [self._value_expr(v) for v in node.present_inputs]
                output_vars = [self.namer.name_for(out) for out in node.outputs if out]
                em.comment(f"{node.op_type} node {node.name!r}")
                for stmt in self.lower(node, input_exprs, output_vars,
                                       self.slots[node_name]):
                    em.line(stmt)

                # Send every output needed by a remote cluster (once per
                # (value, destination cluster) pair).
                for value in node.outputs:
                    if not value:
                        continue
                    remote_clusters = sorted({
                        self.owner[consumer] for consumer in consumers_of.get(value, [])
                        if self.owner[consumer] != cluster_id
                    })
                    for dst in remote_clusters:
                        chan = channel_name(value, cluster_id, dst)
                        em.line(f"channels[{chan!r}].put({self.namer.name_for(value)})"
                                f"  # send {value!r} -> cluster {dst}")
                    if value in outputs_needed:
                        produced_graph_outputs.append(value)

            if produced_graph_outputs:
                em.line("return {")
                em.indent()
                for out in produced_graph_outputs:
                    em.line(f"{out!r}: {self.namer.name_for(out)},")
                em.dedent()
                em.line("}")
            else:
                em.line("return {}")
        return produced_graph_outputs


def _channel_values(graph: Graph, clustering: Clustering) -> Dict[str, str]:
    """Channel name -> the value it carries, sorted by channel name."""
    producers = {out: node.name for node in graph.nodes for out in node.outputs if out}
    owner = clustering.assignment()
    channels: Dict[str, str] = {}
    for node in graph.nodes:
        dst = owner[node.name]
        for value in node.present_inputs:
            producer = producers.get(value)
            if producer is None:
                continue
            src = owner[producer]
            if src != dst:
                channels[channel_name(value, src, dst)] = value
    return dict(sorted(channels.items()))


def collect_channels(graph: Graph, clustering: Clustering) -> List[str]:
    """All channel names implied by the clustering's cross-cluster dependences."""
    return list(_channel_values(graph, clustering))


def _tensor_specs(graph: Graph, channel_values: Dict[str, str]) -> Dict[str, tuple]:
    """``{name: (shape, dtype)}`` for every channel, graph input and graph
    output whose shape inference left fully static.

    The process backend sizes its tensor slots from this; a name without an
    entry still works, through the pickled fallback.
    """
    values = dict(channel_values)
    values.update((name, name) for name in graph.input_names + graph.output_names)
    specs: Dict[str, tuple] = {}
    for name, value in values.items():
        info = graph.tensor_info(value)
        if info is not None and info.nbytes is not None:
            specs[name] = (tuple(info.shape), info.dtype.value)
    return specs


def generate_parallel_source(model: Model, clustering: Clustering) -> str:
    """Generate the parallel module source for a model and its clustering.

    The clustering must cover exactly the nodes of ``model.graph`` (i.e. it
    was computed from a dataflow graph derived from this model, possibly
    after pruning/cloning transformations that are already reflected in the
    model).
    """
    return parallel_source(model, clustering, lower_node)


def parallel_source(model: Model, clustering: Clustering,
                    lower: Callable[..., List[str]],
                    order: Optional[Sequence[OpNode]] = None) -> str:
    """:func:`generate_parallel_source`, printing each node with ``lower``.

    ``order`` is the model's topological order (sorted here when omitted):
    node ``i`` of it computes into ``out[i]``, as in the sequential module.
    """
    graph = model.graph
    if order is None:
        order = topological_sort_nodes(graph)
    slots = {node.name: index for index, node in enumerate(order)}
    node_of = {node.name: node for node in graph.nodes}
    missing = [name for c in clustering.clusters for name in c.nodes if name not in node_of]
    if missing:
        raise ValueError(
            f"clustering references nodes absent from the model graph: {missing[:5]}"
        )

    producers = {out: node.name for node in graph.nodes for out in node.outputs if out}
    consumers_of: Dict[str, List[str]] = {}
    for node in graph.nodes:
        for value in node.present_inputs:
            consumers_of.setdefault(value, []).append(node.name)
    owner = clustering.assignment()
    outputs_needed = set(graph.output_names)

    em = CodeEmitter()
    em.docstring(
        f"Parallel inference code generated by Ramiel for model {model.name!r}.\n\n"
        f"{clustering.num_clusters} clusters; each ``cluster_i`` function runs on its\n"
        "own core (one Python process, per the paper) and exchanges tensors with\n"
        "the other clusters through the ``channels`` mapping."
    )
    em.blank()
    em.line("import numpy as np")
    em.blank()
    em.line("import repro.runtime.functional as F")
    em.blank(2)
    em.line(f"MODEL_NAME = {model.name!r}")
    em.line(f"NUM_CLUSTERS = {clustering.num_clusters}")
    em.line(f"GRAPH_INPUTS = {list(graph.input_names)!r}")
    em.line(f"GRAPH_OUTPUTS = {list(graph.output_names)!r}")
    channel_values = _channel_values(graph, clustering)
    em.line(f"CHANNEL_NAMES = {list(channel_values)!r}")
    em.line(f"CHANNEL_SPECS = {_tensor_specs(graph, channel_values)!r}")
    destination_table_header(em, len(order))
    em.blank(2)

    cluster_inputs: Dict[int, List[str]] = {}
    cluster_outputs: Dict[int, List[str]] = {}
    for index in range(clustering.num_clusters):
        codegen = _ClusterCodegen(graph, clustering, index, node_of, owner, lower, slots)
        produced = codegen.emit(em, producers, consumers_of, outputs_needed)
        cluster_inputs[index] = codegen.graph_inputs_read
        cluster_outputs[index] = produced
        em.blank(2)

    em.line("CLUSTER_FUNCTIONS = [" + ", ".join(
        f"cluster_{i}" for i in range(clustering.num_clusters)) + "]")
    em.line(f"CLUSTER_INPUTS = {cluster_inputs!r}")
    em.line(f"CLUSTER_OUTPUTS = {cluster_outputs!r}")
    return em.source()


def generate_parallel_module(model: Model, clustering: Clustering,
                             directory: Optional[str] = None):
    """Generate and write the parallel module; returns a GeneratedModule
    (imported on first use)."""
    from repro.codegen.module_writer import write_module

    source = generate_parallel_source(model, clustering)
    return write_module(source, f"{model.name}_parallel", directory=directory)
