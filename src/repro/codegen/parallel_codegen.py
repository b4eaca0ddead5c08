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
A node's block is the very text the sequential module prints — one
:class:`~repro.codegen.op_lowering.LoweredModel` names every value and
renders every node for both — ``out=out[i]`` included (``i`` is the node's
index in the model's topological order), so a cluster function run
standalone allocates every intermediate, while a warm worker passes a
table of views into its own liveness-packed slab.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.clustering.cluster import Clustering
from repro.codegen.emitter import CodeEmitter
from repro.codegen.op_lowering import BODY, LoweredModel
from repro.codegen.sequential_codegen import (
    DESTINATION_PARAMETERS_DOC,
    destination_table_header,
    destination_table_prologue,
)
from repro.ir.model import Graph, Model
from repro.runtime.channels import channel_name


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
    return parallel_source(LoweredModel(model), clustering)


def parallel_source(lowered: LoweredModel, clustering: Clustering) -> str:
    """:func:`generate_parallel_source` of a lowered model: each cluster
    function prints the node blocks of its nodes, as the sequential module
    does, with the ``recv`` / ``send`` lines of its remote dependences."""
    model = lowered.model
    graph = model.graph
    exprs, producers, consumers = lowered.exprs, lowered.producers, lowered.consumers
    slots, values, blocks = lowered.slots, lowered.values, lowered.blocks
    missing = [name for c in clustering.clusters for name in c.nodes if name not in slots]
    if missing:
        raise ValueError(
            f"clustering references nodes absent from the model graph: {missing[:5]}"
        )
    fed = set(graph.input_names).difference(graph.initializers)
    outputs_needed = set(graph.output_names)
    owner = clustering.assignment()
    #: channel name -> the value it carries
    channels: Dict[str, str] = {}
    #: per cluster function: the graph inputs it reads, in first-use order,
    #: and the graph outputs it returns
    cluster_inputs: Dict[int, List[str]] = {}
    cluster_outputs: Dict[int, List[str]] = {}

    functions = CodeEmitter()
    for index, cluster in enumerate(clustering.clusters):
        cluster_id = cluster.cluster_id
        received = set()
        reads = cluster_inputs[index] = []
        produced = cluster_outputs[index] = []
        lines: List[str] = []
        for node_name in cluster.nodes:
            slot = slots[node_name]
            inputs, outputs = values[slot]
            for value in inputs:
                producer = producers.get(value)
                if producer is None:
                    if value in fed and value not in reads:
                        reads.append(value)
                    continue
                src = owner[producer]
                if src == cluster_id or value in received:
                    continue
                chan = channel_name(value, src, cluster_id)
                channels[chan] = value
                received.add(value)
                lines.append(f"{BODY}{exprs[value]} = channels[{chan!r}].get()"
                             f"  # recv {value!r} from cluster {src}")
            lines.extend(blocks[slot])
            for value in outputs:
                remote = {owner[consumer] for consumer in consumers.get(value, ())}
                remote.discard(cluster_id)
                for dst in sorted(remote):
                    chan = channel_name(value, cluster_id, dst)
                    lines.append(f"{BODY}channels[{chan!r}].put({exprs[value]})"
                                 f"  # send {value!r} -> cluster {dst}")
                if value in outputs_needed:
                    produced.append(value)

        with functions.block(f"def cluster_{index}"
                             "(inputs, weights, channels, out=None, ws=None):"):
            functions.docstring(
                f"Cluster {cluster_id} of model {graph.name!r} "
                f"({len(cluster.nodes)} operations).\n\n"
                "Receives remote tensors with ``channels[...].get()`` right before\n"
                "they are needed and sends locally produced tensors consumed by\n"
                "other clusters with ``channels[...].put()`` right after producing\n"
                "them (Algorithm 4).\n\n"
                + DESTINATION_PARAMETERS_DOC
            )
            destination_table_prologue(functions)
            functions.extend(lines)
            functions.line("return {" if produced else "return {}")
            if produced:
                functions.lines(f"    {out!r}: {exprs[out]}," for out in produced)
                functions.line("}")
        functions.blank(2)
    functions.line("CLUSTER_FUNCTIONS = [" + ", ".join(
        f"cluster_{i}" for i in range(clustering.num_clusters)) + "]")
    functions.line(f"CLUSTER_INPUTS = {cluster_inputs!r}")
    functions.line(f"CLUSTER_OUTPUTS = {cluster_outputs!r}")

    # The header names the channels the functions above found.
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
    channel_values = dict(sorted(channels.items()))
    em.line(f"CHANNEL_NAMES = {list(channel_values)!r}")
    em.line(f"CHANNEL_SPECS = {_tensor_specs(graph, channel_values)!r}")
    destination_table_header(em, len(lowered.order))
    em.blank(2)
    return em.source() + functions.source()


def generate_parallel_module(model: Model, clustering: Clustering,
                             directory: Optional[str] = None):
    """Generate and write the parallel module; returns a GeneratedModule
    (imported on first use)."""
    from repro.codegen.module_writer import write_module

    source = generate_parallel_source(model, clustering)
    return write_module(source, f"{model.name}_parallel", directory=directory)
