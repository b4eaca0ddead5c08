"""SSA-style naming of tensor values in generated code.

Algorithm 4 "generate[s] a new SSA-name for the output variable of the node
n called outVar".  IR value names can contain characters that are not legal
Python identifiers, and distinct IR values must never collide after
sanitization, so the namer keeps a bijection between IR value names and
generated identifiers.
"""

from __future__ import annotations

import keyword
import re
from typing import Dict

_IDENT_RE = re.compile(r"[^0-9a-zA-Z_]")


class SSANamer:
    """Allocate unique, readable Python identifiers for IR value names."""

    def __init__(self, prefix: str = "v_") -> None:
        self.prefix = prefix
        self._by_value: Dict[str, str] = {}
        self._used: set = set()

    def name_for(self, value_name: str) -> str:
        """Return (allocating if needed) the identifier for an IR value name."""
        existing = self._by_value.get(value_name)
        if existing is not None:
            return existing
        base = _IDENT_RE.sub("_", value_name).strip("_") or "value"
        if base[0].isdigit():
            base = f"_{base}"
        candidate = f"{self.prefix}{base}"
        if keyword.iskeyword(candidate):
            candidate += "_"
        unique = candidate
        counter = 1
        while unique in self._used:
            unique = f"{candidate}_{counter}"
            counter += 1
        self._used.add(unique)
        self._by_value[value_name] = unique
        return unique


def sanitize_identifier(name: str, prefix: str = "") -> str:
    """One-off sanitization of a name into a legal Python identifier."""
    base = _IDENT_RE.sub("_", name).strip("_") or "name"
    if base[0].isdigit():
        base = f"_{base}"
    out = f"{prefix}{base}"
    if keyword.iskeyword(out):
        out += "_"
    return out
