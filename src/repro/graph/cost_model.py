"""Static weighted cost model (Section III-A of the paper).

The paper assigns "certain static weights to the operations, heavy DL
operations like Conv, Matmul etc. having higher cost than simpler ones.
Also a Conv using a bigger kernel of size 7x7 or 5x5 is assigned a higher
cost compared to those of size 3x3 or 1x1.  Elementwise operations like
Relu are assigned a cost of 1", and a unit cost is charged per graph edge
when computing the critical path.

:class:`CostModel` encodes exactly that scheme.  The constants are
configurable; the defaults were chosen so that the potential-parallelism
factors of Table I come out in the right bands (Squeezenet < 1, Inception
~1.3-1.4, NASNet >> 1).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Mapping, Optional

from repro.ir.model import Graph
from repro.ir.node import OpNode
from repro.ir.opset import OpKind, attr_value, has_schema, get_schema


@dataclasses.dataclass
class CostModel:
    """Static per-node and per-edge cost assignment.

    Parameters
    ----------
    conv_kernel_costs:
        Cost of a Conv node keyed by max(kernel height, kernel width).
        Kernels larger than the largest key use the largest entry.
    kind_costs:
        Default cost per :class:`OpKind` for non-Conv operators.
    op_overrides:
        Exact per-op-type overrides (take precedence over kind costs).
    edge_unit_cost:
        Cost added per edge on the critical path (tensor-dependence
        overhead); the paper uses 1.
    conv_channel_scaling:
        When True, a Conv's kernel-bucket cost is additionally scaled by a
        small factor derived from its output-channel count, which separates
        the tiny squeeze convolutions from wide inception branches without
        abandoning the paper's "static weights" philosophy.
    gemm_flops_scaling:
        When True, MatMul/Gemm costs scale with an estimate of their FLOPs
        (derived from the operand shapes recorded in ``value_info``).  This
        mirrors the paper's observation that BERT's weighted node cost is an
        order of magnitude larger than the CNNs' despite a similar node
        count: the transformer's matrix multiplies dominate.
    """

    conv_kernel_costs: Mapping[int, float] = dataclasses.field(
        default_factory=lambda: {1: 2.0, 3: 4.0, 5: 8.0, 7: 12.0, 11: 16.0}
    )
    kind_costs: Mapping[OpKind, float] = dataclasses.field(
        default_factory=lambda: {
            OpKind.CONV: 4.0,
            OpKind.GEMM: 6.0,
            OpKind.POOL: 1.0,
            OpKind.NORMALIZATION: 1.0,
            OpKind.ACTIVATION: 1.0,
            OpKind.ELEMENTWISE: 1.0,
            OpKind.REDUCTION: 1.0,
            OpKind.CONCAT: 1.0,
            OpKind.MOVEMENT: 1.0,
            OpKind.SHAPE: 0.0,
            OpKind.CONTROL: 0.0,
            OpKind.EMBEDDING: 2.0,
            OpKind.SOFTMAX: 1.0,
            OpKind.RESIZE: 1.0,
        }
    )
    op_overrides: Mapping[str, float] = dataclasses.field(default_factory=dict)
    edge_unit_cost: float = 1.0
    conv_channel_scaling: bool = True
    gemm_flops_scaling: bool = True
    gemm_flops_per_unit: float = 100_000.0
    default_cost: float = 1.0

    # ------------------------------------------------------------------
    def node_cost(self, op: OpNode, graph: Optional[Graph] = None) -> float:
        """Static cost of one operator node."""
        if op.op_type in self.op_overrides:
            return float(self.op_overrides[op.op_type])
        if not has_schema(op.op_type):
            return self.default_cost
        schema = get_schema(op.op_type)
        if schema.kind is OpKind.CONV:
            return self._conv_cost(op, graph)
        if schema.kind is OpKind.GEMM:
            return self._gemm_cost(op, graph)
        return float(self.kind_costs.get(schema.kind, self.default_cost))

    def edge_cost(self, nbytes: int = 0) -> float:
        """Cost contributed by one tensor-dependence edge (paper: unit)."""
        return float(self.edge_unit_cost)

    # ------------------------------------------------------------------
    def _kernel_bucket_cost(self, kmax: int) -> float:
        keys = sorted(self.conv_kernel_costs)
        chosen = keys[-1]
        for key in keys:
            if kmax <= key:
                chosen = key
                break
        return float(self.conv_kernel_costs[chosen])

    def _conv_cost(self, op: OpNode, graph: Optional[Graph]) -> float:
        kernel = op.get_attr("kernel_shape")
        if kernel is None and graph is not None and len(op.inputs) > 1:
            w_info = graph.tensor_info(op.inputs[1])
            if w_info is not None and w_info.shape is not None and len(w_info.shape) == 4:
                kernel = [w_info.shape[2], w_info.shape[3]]
        kmax = max(int(k) for k in kernel) if kernel else 3
        cost = self._kernel_bucket_cost(kmax)
        if self.conv_channel_scaling and graph is not None and len(op.inputs) > 1:
            w_info = graph.tensor_info(op.inputs[1])
            if (w_info is not None and w_info.shape is not None
                    and len(w_info.shape) == 4 and w_info.shape[0] is not None):
                out_channels = int(w_info.shape[0])
                # Wider layers do proportionally more work; tiny squeeze
                # layers (<32 channels) get a modest discount.  The buckets
                # keep this a *static* weight in the spirit of the paper.
                if out_channels >= 512:
                    cost *= 3.0
                elif out_channels >= 256:
                    cost *= 2.0
                elif out_channels >= 128:
                    cost *= 1.5
                elif out_channels < 32:
                    cost *= 0.75
        if attr_value(op, "group") > 1:
            # Depthwise convolutions do proportionally less work.
            cost = max(cost / 2.0, 1.0)
        return float(cost)

    def _gemm_cost(self, op: OpNode, graph: Optional[Graph]) -> float:
        base = float(self.kind_costs.get(OpKind.GEMM, 6.0))
        if graph is None:
            return base
        if self.gemm_flops_scaling:
            flops = self._gemm_flops(op, graph)
            if flops is not None:
                return float(min(max(flops / self.gemm_flops_per_unit, 2.0), 400.0))
        # Fallback: scale by the size bucket of the weight operand.
        for inp in op.inputs[1:2]:
            info = graph.tensor_info(inp)
            if info is not None and info.num_elements is not None:
                elems = info.num_elements
                if elems >= 1_000_000:
                    return base * 2.0
                if elems <= 10_000:
                    return base * 0.5
        return base

    @staticmethod
    def _gemm_flops(op: OpNode, graph: Graph) -> Optional[float]:
        """Estimated multiply-accumulate count of a MatMul/Gemm node."""
        a_info = graph.tensor_info(op.inputs[0]) if op.inputs else None
        b_info = graph.tensor_info(op.inputs[1]) if len(op.inputs) > 1 else None
        if (a_info is None or b_info is None
                or a_info.shape is None or b_info.shape is None
                or any(d is None for d in a_info.shape)
                or any(d is None for d in b_info.shape)
                or len(a_info.shape) < 1 or len(b_info.shape) < 1):
            return None
        a_shape = list(a_info.shape)
        b_shape = list(b_info.shape)
        if op.op_type == "Gemm":
            if attr_value(op, "transA"):
                a_shape = a_shape[::-1]
            if attr_value(op, "transB"):
                b_shape = b_shape[::-1]
        if len(a_shape) < 2:
            a_shape = [1] + a_shape
        if len(b_shape) < 2:
            b_shape = b_shape + [1]
        m, k = a_shape[-2], a_shape[-1]
        n = b_shape[-1]
        batch = 1
        for d in a_shape[:-2]:
            batch *= d
        return float(batch * m * k * n)

    # ------------------------------------------------------------------
    def with_overrides(self, **op_costs: float) -> "CostModel":
        """Return a copy of the model with extra per-op-type overrides."""
        merged = dict(self.op_overrides)
        merged.update(op_costs)
        return dataclasses.replace(self, op_overrides=merged)


#: The default cost model used throughout the reproduction.
DEFAULT_COST_MODEL = CostModel()


def graph_node_costs(graph: Graph, cost_model: Optional[CostModel] = None) -> Dict[str, float]:
    """Convenience: map node name -> static cost for a whole IR graph."""
    cm = cost_model or DEFAULT_COST_MODEL
    return {op.name: cm.node_cost(op, graph) for op in graph.nodes}
