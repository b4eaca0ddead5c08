"""Materialize generated source as Python modules, imported on first use.

A compile writes its modules; it does not import them.  Byte-compiling and
executing a generated module costs about as much as generating it.  Where
nothing runs the module (``ramiel compile``, a compile-only run, a ``plan``
session, which executes the optimized model directly) that work is gone;
elsewhere it moves to first use, e.g. to ``create_session`` for a ``pool``
or ``process`` session.

The import executes the text the :class:`GeneratedModule` holds, not the
file: a later write to the same path (another compile of the same model
into the same ``output_dir``) cannot change what an earlier result runs.
"""

from __future__ import annotations

import atexit
import dataclasses
import importlib.util
import os
import shutil
import tempfile
import threading
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
    """A generated module: its source text, its on-disk path, and the module
    itself, imported from ``source`` (under ``path``'s name) on first use.

    ``module`` or any attribute the module defines (``run``,
    ``CLUSTER_FUNCTIONS``, ...) triggers the import — once, under a lock, so
    threads racing on first access share one module.  An import error
    (a ``SyntaxError`` names ``path``) surfaces at that first use.
    """

    name: str
    source: str
    path: Path
    _module: Optional[types.ModuleType] = dataclasses.field(
        default=None, init=False, repr=False, compare=False)
    _lock: threading.Lock = dataclasses.field(
        default_factory=threading.Lock, init=False, repr=False, compare=False)

    @property
    def module(self) -> types.ModuleType:
        """The imported module (imported here on the first call)."""
        if self._module is None:
            with self._lock:
                if self._module is None:
                    self._module = load_module(self.path, self.name, self.source)
        return self._module

    def __getattr__(self, item):
        # Delegate attribute access to the underlying module so callers can
        # use the GeneratedModule as if it were the module itself; names
        # with a leading underscore are the wrapper's own.
        if item.startswith("_"):
            raise AttributeError(item)
        return getattr(self.module, item)


def write_module(source: str, name: str, directory: Optional[str] = None) -> GeneratedModule:
    """Write generated source to ``<directory>/<name>.py``; it is imported
    when the returned :class:`GeneratedModule` is first used.

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
    return GeneratedModule(name=unique_name, source=source, path=path)


def load_module(path, module_name: str, source: Optional[str] = None) -> types.ModuleType:
    """Import a Python file as a module under the given name.

    ``source``, when given, is executed in place of the file's contents;
    ``__file__`` and any ``SyntaxError`` still name ``path``.
    """
    path = Path(path)
    if source is None:
        source = path.read_text(encoding="utf-8")
    spec = importlib.util.spec_from_file_location(module_name, path)
    if spec is None:  # pragma: no cover - importlib invariant
        raise ImportError(f"cannot load generated module from {path}")
    module = importlib.util.module_from_spec(spec)
    exec(compile(source, str(path), "exec"), module.__dict__)
    return module
