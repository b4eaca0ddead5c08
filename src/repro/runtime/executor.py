"""Reference interpreter for IR graphs.

:class:`GraphExecutor` executes a model node-by-node in topological order.
Each node is bound once, at construction, by :func:`repro.ir.opset.bind` —
the operator declaration's closure over the one
:mod:`repro.runtime.functional` kernel — and :meth:`GraphExecutor.run` is a
short loop over those closures.  It serves two purposes in the
reproduction:

1. ground truth that the execution plan and Ramiel-generated sequential and
   parallel code are compared against in the tests (``run(feed,
   outputs=[...])`` reads any intermediate value), and
2. the semantics constant folding evaluates nodes with
   (:mod:`repro.passes` folds constants by binding nodes the same way).

Per-node timings come from the plan's tracer spans instead
(:mod:`repro.runtime.profiler`).
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence

import numpy as np

from repro.graph.traversal import topological_sort_nodes
from repro.ir.model import Graph, Model
from repro.ir.node import OpNode
from repro.ir.opset import BoundOp, bind, require_supported


class ExecutionError(RuntimeError):
    """Raised when a node cannot be executed."""


def _bind_deferred(node: OpNode) -> BoundOp:
    """Bind ``node``; a node that cannot be bound fails when it is reached."""
    try:
        return bind(node, ExecutionError)
    except ExecutionError as exc:
        def fail(args, exc=exc):
            raise exc

        return BoundOp(fail, None, False)


# ---------------------------------------------------------------------------
# Executor
# ---------------------------------------------------------------------------
class GraphExecutor:
    """Execute an IR model with the numpy runtime.

    Parameters
    ----------
    model:
        An IR :class:`Model` or bare :class:`Graph`.
    check_supported:
        When True (default), raise immediately for ops with no handler so
        errors surface at construction rather than mid-run.
    """

    def __init__(self, model, check_supported: bool = True) -> None:
        self.graph: Graph = model.graph if isinstance(model, Model) else model
        order = topological_sort_nodes(self.graph)
        if check_supported:
            require_supported(order, ExecutionError)
        #: (node, names of its present inputs, bound kernel) in execution order
        self._steps = [
            (node, node.present_inputs,
             bind(node, ExecutionError) if check_supported else _bind_deferred(node))
            for node in order
        ]

    # ------------------------------------------------------------------
    def run(
        self,
        inputs: Mapping[str, np.ndarray],
        outputs: Optional[Sequence[str]] = None,
    ) -> Dict[str, np.ndarray]:
        """Run the graph and return the requested outputs (graph outputs by default).

        Parameters
        ----------
        inputs:
            Mapping of graph-input name to numpy array.
        outputs:
            Names of values to return; defaults to the graph outputs.
        """
        values: Dict[str, np.ndarray] = {}
        for name, array in self.graph.initializers.items():
            values[name] = array
        for name in self.graph.input_names:
            if name not in inputs:
                raise ExecutionError(f"missing graph input {name!r}")
        for name, array in inputs.items():
            values[name] = np.asarray(array)

        for node, in_names, bound in self._steps:
            try:
                args = [values[name] for name in in_names]
            except KeyError as exc:
                raise ExecutionError(
                    f"node {node.name} ({node.op_type}) requires value {exc} "
                    "which has not been computed"
                ) from exc
            try:
                results = bound.call(args)
            except ExecutionError:
                raise
            except Exception as exc:  # noqa: BLE001 - augment with node context
                raise ExecutionError(
                    f"execution of node {node.name} ({node.op_type}) failed: {exc}"
                ) from exc
            if not bound.multi:
                values[node.outputs[0]] = results
            else:
                for name, value in zip(node.outputs, results):
                    if name:
                        values[name] = value

        wanted = list(outputs) if outputs is not None else self.graph.output_names
        missing = [name for name in wanted if name not in values]
        if missing:
            raise ExecutionError(f"requested outputs never produced: {missing}")
        return {name: values[name] for name in wanted}


def execute_model(model, inputs: Mapping[str, np.ndarray],
                  outputs: Optional[Sequence[str]] = None) -> Dict[str, np.ndarray]:
    """One-shot convenience wrapper around :class:`GraphExecutor`."""
    return GraphExecutor(model).run(inputs, outputs=outputs)
