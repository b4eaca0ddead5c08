"""Sequential (single-core) code generation.

"To ensure completeness and to evaluate the parallel code generation, a
single core non-parallel version of the code is also generated by Ramiel."
The sequential module is the baseline all speedups are measured against and
the functional reference the parallel code is compared to in tests.  It is
also the execution plan's code: :class:`repro.runtime.plan.ExecutionPlan`
runs this very text (byte for byte), passing a destination table of views
into one liveness-packed slab where a standalone call passes none and
allocates every intermediate.

Its body is the node blocks of a :class:`~repro.codegen.op_lowering.LoweredModel`
in topological order — the blocks the parallel module's cluster functions
print too, so a compile names and renders each node once for both.
"""

from __future__ import annotations

from typing import Optional

from repro.codegen.emitter import CodeEmitter
from repro.codegen.op_lowering import BODY, LoweredModel
from repro.ir.model import Model


def generate_sequential_source(model: Model, function_name: str = "run") -> str:
    """Generate the source of a sequential inference module for a model."""
    return sequential_source(LoweredModel(model), function_name)


def destination_table_header(em: CodeEmitter, num_nodes: int) -> None:
    """Emit ``NUM_NODES`` and the all-``None`` destination table of a
    standalone run (every call allocates)."""
    em.line(f"NUM_NODES = {num_nodes}")
    em.line("NO_DESTINATIONS = (None,) * NUM_NODES")


def destination_table_prologue(em: CodeEmitter) -> None:
    """Emit the first statements of a generated function: a caller that
    passes no destination table runs standalone."""
    with em.block("if out is None:"):
        em.line("out = NO_DESTINATIONS")


#: the parameters ``out`` and ``ws`` of every generated function
DESTINATION_PARAMETERS_DOC = (
    "out:\n"
    "    Optional destination table: ``out[i]`` is the array node ``i`` (its\n"
    "    index in the model's topological order) computes into, or None to\n"
    "    allocate.  Omitted, every call allocates.\n"
    "ws:\n"
    "    Optional ``repro.runtime.tensor_utils.Workspace`` the kernels take\n"
    "    their scratch from.\n"
)


def sequential_source(lowered: LoweredModel, function_name: str = "run",
                      traced: bool = False) -> str:
    """:func:`generate_sequential_source` of a lowered model: its node blocks
    in its topological order.

    Node ``i`` of the order computes into ``out[i]``.  ``traced`` prints the
    execution plan's traced twin: each node's statements are bracketed by
    ``_t = _now()`` and ``_span(i, _t)``, names the plan binds when it
    compiles the twin.
    """
    model = lowered.model
    graph = model.graph
    em = CodeEmitter()

    em.docstring(
        f"Sequential inference code generated by Ramiel for model {model.name!r}.\n\n"
        "Auto-generated: one statement per dataflow-graph node, executed in\n"
        "topological order on a single core.  The companion parallel module\n"
        "splits the same statements across cluster functions."
    )
    em.blank()
    em.line("import numpy as np")
    em.blank()
    em.line("import repro.runtime.functional as F")
    em.blank(2)
    em.line(f"MODEL_NAME = {model.name!r}")
    em.line(f"GRAPH_INPUTS = {list(graph.input_names)!r}")
    em.line(f"GRAPH_OUTPUTS = {list(graph.output_names)!r}")
    destination_table_header(em, len(lowered.order))
    em.blank(2)

    with em.block(f"def {function_name}(inputs, weights, out=None, ws=None):"):
        em.docstring(
            "Run the model sequentially.\n\n"
            "Parameters\n"
            "----------\n"
            "inputs:\n"
            "    Mapping of graph-input name to numpy array.\n"
            "weights:\n"
            "    Mapping of initializer name to numpy array (see\n"
            "    ``Model.graph.initializers``).\n"
            + DESTINATION_PARAMETERS_DOC
        )
        destination_table_prologue(em)
        if traced:
            for index, (comment, statements) in enumerate(lowered.blocks):
                em.extend((comment, f"{BODY}_t = _now()", statements,
                         f"{BODY}_span({index}, _t)"))
        else:
            for block in lowered.blocks:
                em.extend(block)
        em.line("return {")
        em.indent()
        for out, expr in lowered.outputs:
            em.line(f"{out!r}: {expr},")
        em.dedent()
        em.line("}")
    return em.source()


def generate_sequential_module(model: Model, directory: Optional[str] = None):
    """Generate and write the sequential module; returns a GeneratedModule
    (imported on first use)."""
    from repro.codegen.module_writer import write_module

    source = generate_sequential_source(model)
    return write_module(source, f"{model.name}_sequential", directory=directory)
