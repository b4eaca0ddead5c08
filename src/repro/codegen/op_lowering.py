"""Per-operator lowering to readable Python calls, done once per compile.

The paper's ``GeneratePytorchCodeForOperandType`` is one mapping from an
operator node to one framework call.  Here that mapping is the operator
declaration in :mod:`repro.ir.opset`: :func:`lower_node` prints, through
:func:`repro.ir.opset.render`, the very ``F.<operator>(...)`` call the
interpreter and the execution plan run for the node, so generated
sequential and per-cluster code cannot drift from them.

:class:`LoweredModel` is that mapping over a whole model: one
:class:`~repro.codegen.ssa.SSANamer` names every value and every node is
rendered once, into the statement block both generated modules print —
the sequential module in topological order, each cluster function for its
own nodes between its ``recv`` and ``send`` lines.

The generated text is meant to be *read* — attribute values are rendered as
plain literals, one statement per node, with the original node name
recoverable from the SSA variable names.  It is also meant to be *run*
fast: every call that can compute into a caller-owned buffer names its
entry of a destination table, ``out=out[i]`` (``i`` is the node's index in
the model's topological order), and every kernel that takes scratch gets
``workspace=ws``.  Called standalone the table is all ``None`` and each
call allocates; the execution plan and the warm workers pass a table of
views into one liveness-packed slab.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.codegen.ssa import SSANamer
from repro.graph.traversal import topological_sort_nodes
from repro.ir.model import Model
from repro.ir.node import OpNode
from repro.ir.opset import render

#: indentation of a statement in a generated function's body
BODY = "    "


class LoweringError(NotImplementedError):
    """Raised when an operator has no code-generation rule."""


def lower_node(node: OpNode, input_exprs: Sequence[str], output_vars: Sequence[str],
               slot: Optional[int] = None) -> List[str]:
    """Lower one node to Python statements assigning ``output_vars``.

    With ``slot`` (the node's index in the model's topological order) a
    destination-capable call passes ``out=out[slot]`` and a scratch-taking
    kernel ``workspace=ws`` — see :func:`repro.ir.opset.render`.
    """
    return render(node, input_exprs, output_vars, LoweringError, slot)[0]


class LoweredModel:
    """Every node of ``model`` named and rendered once, in ``order``.

    ``order`` is the model's topological order (sorted here when omitted);
    node ``i`` of it computes into ``out[i]``.  A value reads as the SSA
    variable of its producer, ``weights[...]`` or ``inputs[...]``;
    ``error`` is raised for a node that cannot be rendered.
    """

    def __init__(self, model: Model, order: Optional[Sequence[OpNode]] = None,
                 error: type = LoweringError) -> None:
        graph = model.graph
        if order is None:
            order = topological_sort_nodes(graph)
        self.model = model
        self.order = order
        name_for = SSANamer().name_for
        weights = graph.initializers
        fed = set(graph.input_names)
        #: value name -> the expression that reads it
        self.exprs: Dict[str, str] = {}
        #: value name -> the name of the node producing it
        self.producers: Dict[str, str] = {}
        #: value name -> the names of the nodes reading it, in ``order``
        self.consumers: Dict[str, List[str]] = {}
        #: node name -> its index in ``order``
        self.slots: Dict[str, int] = {}
        #: per node of ``order``: its present inputs and its named outputs
        self.values: List[Tuple[List[str], List[str]]] = []
        #: per node of ``order``: its ``#`` comment line and its statements,
        #: indented as a generated function's body
        self.blocks: List[Tuple[str, str]] = []
        #: per node of ``order``: its :func:`~repro.ir.opset.destination`
        self.capabilities: List[Optional[str]] = []
        exprs, producers, consumers = self.exprs, self.producers, self.consumers

        def expr(value: str) -> str:
            found = exprs.get(value)
            if found is None:
                if value in weights:
                    found = f"weights[{value!r}]"
                elif value in fed:
                    found = f"inputs[{value!r}]"
                else:
                    found = name_for(value)
                exprs[value] = found
            return found

        for slot, node in enumerate(order):
            name = node.name
            inputs = node.present_inputs
            input_exprs = [expr(value) for value in inputs]
            outputs = [value for value in node.outputs if value]
            output_vars = []
            for value in outputs:
                exprs[value] = var = name_for(value)
                output_vars.append(var)
                producers[value] = name
            for value in inputs:
                consumers.setdefault(value, []).append(name)
            self.slots[name] = slot
            self.values.append((inputs, outputs))
            statements, capability = render(node, input_exprs, output_vars, error, slot)
            self.capabilities.append(capability)
            self.blocks.append((f"{BODY}# {node.op_type} node {name!r}",
                                BODY + f"\n{BODY}".join(statements)))
        #: ``(name, expression)`` of every graph output
        self.outputs = [(value, expr(value)) for value in graph.output_names]
