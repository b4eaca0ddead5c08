"""Operator nodes of the IR graph."""

from __future__ import annotations

import dataclasses
import itertools
from typing import Any, Dict, Iterable, List, Optional, Sequence

from repro.ir.attributes import Attribute, attrs_from_kwargs

_node_counter = itertools.count()


@dataclasses.dataclass
class OpNode:
    """A single operator invocation in a dataflow graph.

    Parameters
    ----------
    op_type:
        Operator name, e.g. ``"Conv"`` or ``"MatMul"``.  Must be registered
        in :mod:`repro.ir.opset` for shape inference / cost modelling to
        work, but unregistered custom ops are tolerated by the container.
    inputs:
        Ordered list of value names consumed.  Empty string entries denote
        optional inputs that are absent (ONNX convention).
    outputs:
        Ordered list of value names produced.
    name:
        Unique node name within the graph; auto-generated when omitted.
    attributes:
        Mapping of attribute name to :class:`Attribute`.
    """

    op_type: str
    inputs: List[str] = dataclasses.field(default_factory=list)
    outputs: List[str] = dataclasses.field(default_factory=list)
    name: str = ""
    attributes: Dict[str, Attribute] = dataclasses.field(default_factory=dict)
    doc: str = ""

    def __post_init__(self) -> None:
        if not self.op_type:
            raise ValueError("OpNode requires a non-empty op_type")
        self.inputs = list(self.inputs)
        self.outputs = list(self.outputs)
        if not self.name:
            self.name = f"{self.op_type.lower()}_{next(_node_counter)}"
        if not isinstance(self.attributes, dict):
            self.attributes = {a.name: a for a in self.attributes}

    # ------------------------------------------------------------------
    # Attribute access
    # ------------------------------------------------------------------
    def set_attr(self, name: str, value: Any) -> None:
        """Set (or overwrite) an attribute from a plain value."""
        self.attributes[name] = Attribute.from_value(name, value)

    def get_attr(self, name: str, default: Any = None) -> Any:
        """Return the raw payload of an attribute, or ``default``."""
        attr = self.attributes.get(name)
        return default if attr is None else attr.value

    def has_attr(self, name: str) -> bool:
        """True when the node carries the named attribute."""
        return name in self.attributes

    # ------------------------------------------------------------------
    # Structural helpers
    # ------------------------------------------------------------------
    @property
    def present_inputs(self) -> List[str]:
        """Input names with absent optional inputs ("") filtered out."""
        return [i for i in self.inputs if i]

    @property
    def primary_output(self) -> str:
        """The first output name (most ops have exactly one output)."""
        if not self.outputs:
            raise ValueError(f"node {self.name} has no outputs")
        return self.outputs[0]

    def rename_input(self, old: str, new: str) -> int:
        """Replace every occurrence of input ``old`` with ``new``.

        Returns the number of replacements performed.
        """
        count = 0
        for idx, value in enumerate(self.inputs):
            if value == old:
                self.inputs[idx] = new
                count += 1
        return count

    def rename_output(self, old: str, new: str) -> int:
        """Replace every occurrence of output ``old`` with ``new``."""
        count = 0
        for idx, value in enumerate(self.outputs):
            if value == old:
                self.outputs[idx] = new
                count += 1
        return count

    def copy(self, name: Optional[str] = None) -> "OpNode":
        """Deep copy of this node, optionally renamed."""
        return OpNode(
            op_type=self.op_type,
            inputs=list(self.inputs),
            outputs=list(self.outputs),
            name=name if name is not None else self.name,
            attributes={k: v.copy() for k, v in self.attributes.items()},
            doc=self.doc,
        )

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-compatible dictionary form."""
        return {
            "op_type": self.op_type,
            "name": self.name,
            "inputs": list(self.inputs),
            "outputs": list(self.outputs),
            "attributes": [a.to_dict() for a in self.attributes.values()],
            "doc": self.doc,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "OpNode":
        """Inverse of :meth:`to_dict`."""
        attrs = {a["name"]: Attribute.from_dict(a) for a in data.get("attributes", [])}
        return cls(
            op_type=data["op_type"],
            inputs=list(data.get("inputs", [])),
            outputs=list(data.get("outputs", [])),
            name=data.get("name", ""),
            attributes=attrs,
            doc=data.get("doc", ""),
        )

    @classmethod
    def create(
        cls,
        op_type: str,
        inputs: Sequence[str],
        outputs: Sequence[str],
        name: str = "",
        **attrs: Any,
    ) -> "OpNode":
        """Convenience constructor taking attributes as keyword arguments."""
        attributes = {a.name: a for a in attrs_from_kwargs(**attrs)}
        return cls(
            op_type=op_type,
            inputs=list(inputs),
            outputs=list(outputs),
            name=name,
            attributes=attributes,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"OpNode({self.op_type}, name={self.name!r}, "
            f"inputs={self.inputs}, outputs={self.outputs})"
        )
