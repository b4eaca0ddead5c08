"""Materialize generated source as importable Python modules."""

from __future__ import annotations

import atexit
import dataclasses
import importlib.util
import os
import shutil
import tempfile
import types
from pathlib import Path
from typing import Optional, Tuple

from repro.codegen.ssa import sanitize_identifier

#: Counter ensuring unique module names within one interpreter session even
#: when the same model is generated repeatedly (tests do this a lot).
_module_counter = 0
#: ``(pid, path)`` of the directory modules go to when none is given
_process_dir: Optional[Tuple[int, str]] = None


def _default_directory() -> str:
    """This process's directory for generated modules, made on first use.

    It is removed at exit by the process that made it: a forked child
    inherits the exit hook, and makes a directory of its own on first use.
    """
    global _process_dir
    pid = os.getpid()
    if _process_dir is None or _process_dir[0] != pid:
        _process_dir = (pid, tempfile.mkdtemp(prefix="ramiel_codegen_"))
        atexit.register(_remove_directory, *_process_dir)
    return _process_dir[1]


def _remove_directory(owner: int, path: str) -> None:
    if os.getpid() == owner:
        shutil.rmtree(path, ignore_errors=True)


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

    When ``directory`` is omitted the file is ``<name>_<n>.py`` in one
    temporary directory per process, kept for the lifetime of the process
    (so that workers started with the ``fork`` method can still resolve the
    module file) and removed at its exit.
    """
    global _module_counter
    _module_counter += 1
    safe_name = sanitize_identifier(name)
    unique_name = f"ramiel_generated_{safe_name}_{_module_counter}"

    if directory is None:
        directory = _default_directory()
        safe_name = f"{safe_name}_{_module_counter}"
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
