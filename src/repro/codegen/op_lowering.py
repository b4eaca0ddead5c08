"""Per-operator lowering to readable Python calls.

The paper's ``GeneratePytorchCodeForOperandType`` is one mapping from an
operator node to one framework call.  Here that mapping is the operator
declaration in :mod:`repro.ir.opset`: :func:`lower_node` prints, through
:func:`repro.ir.opset.render`, the very ``F.<operator>(...)`` call the
interpreter and the execution plan run for the node, so generated
sequential and per-cluster code cannot drift from them.

The generated text is meant to be *read* — attribute values are rendered as
plain literals, one statement per node, with the original node name
recoverable from the SSA variable names.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.ir.node import OpNode
from repro.ir.opset import render


class LoweringError(NotImplementedError):
    """Raised when an operator has no code-generation rule."""


def lower_node(node: OpNode, input_exprs: Sequence[str], output_vars: Sequence[str]) -> List[str]:
    """Lower one node to Python statements assigning ``output_vars``."""
    return render(node, input_exprs, output_vars, LoweringError)
