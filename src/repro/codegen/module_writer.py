"""Materialize generated source as importable Python modules."""

from __future__ import annotations

import dataclasses
import importlib.util
import tempfile
import types
from pathlib import Path
from typing import Optional

from repro.codegen.ssa import sanitize_identifier

#: Counter ensuring unique module names within one interpreter session even
#: when the same model is generated repeatedly (tests do this a lot).
_module_counter = 0


@dataclasses.dataclass
class GeneratedModule:
    """A generated module: its source text, on-disk path and loaded module."""

    name: str
    source: str
    path: Path
    module: types.ModuleType

    def __getattr__(self, item):
        # Delegate attribute access to the underlying module so callers can
        # use the GeneratedModule as if it were the module itself.
        return getattr(self.module, item)


def write_module(source: str, name: str, directory: Optional[str] = None) -> GeneratedModule:
    """Write generated source to ``<directory>/<name>.py`` and import it.

    When ``directory`` is omitted a temporary directory is used (kept for the
    lifetime of the process so that multiprocessing workers started with the
    ``fork`` method can still resolve the module file).
    """
    global _module_counter
    _module_counter += 1
    safe_name = sanitize_identifier(name)
    unique_name = f"ramiel_generated_{safe_name}_{_module_counter}"

    if directory is None:
        directory = tempfile.mkdtemp(prefix="ramiel_codegen_")
    out_dir = Path(directory)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{safe_name}.py"
    path.write_text(source, encoding="utf-8")

    module = load_module(path, unique_name)
    return GeneratedModule(name=unique_name, source=source, path=path, module=module)


def load_module(path, module_name: str) -> types.ModuleType:
    """Import a Python file as a module under the given name."""
    path = Path(path)
    spec = importlib.util.spec_from_file_location(module_name, path)
    if spec is None or spec.loader is None:  # pragma: no cover - importlib invariant
        raise ImportError(f"cannot load generated module from {path}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
