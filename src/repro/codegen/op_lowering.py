"""Per-operator lowering to readable Python calls.

The paper's ``GeneratePytorchCodeForOperandType`` is one mapping from an
operator node to one framework call.  Here that mapping is the operator
declaration in :mod:`repro.ir.opset`: :func:`lower_node` prints, through
:func:`repro.ir.opset.render`, the very ``F.<operator>(...)`` call the
interpreter and the execution plan run for the node, so generated
sequential and per-cluster code cannot drift from them.

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

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.ir.node import OpNode
from repro.ir.opset import render


class LoweringError(NotImplementedError):
    """Raised when an operator has no code-generation rule."""


def lower_node(node: OpNode, input_exprs: Sequence[str], output_vars: Sequence[str],
               slot: Optional[int] = None) -> List[str]:
    """Lower one node to Python statements assigning ``output_vars``.

    With ``slot`` (the node's index in the model's topological order) a
    destination-capable call passes ``out=out[slot]`` and a scratch-taking
    kernel ``workspace=ws`` — see :func:`repro.ir.opset.render`.
    """
    return render(node, input_exprs, output_vars, LoweringError, slot)


def shared_lowering() -> Callable[..., List[str]]:
    """:func:`lower_node` remembered for one compile.

    The sequential and the parallel module name a node's values alike, so
    with one of these shared between them each node is rendered once.
    """
    statements: Dict[Tuple, List[str]] = {}

    def lower(node: OpNode, input_exprs: Sequence[str], output_vars: Sequence[str],
              slot: Optional[int] = None) -> List[str]:
        key = (node.name, tuple(input_exprs), tuple(output_vars), slot)
        found = statements.get(key)
        if found is None:
            found = statements[key] = lower_node(node, input_exprs, output_vars, slot)
        return found

    return lower
