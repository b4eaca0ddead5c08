"""Every third-party package ``src/repro`` imports is declared in pyproject.toml.

A module-level import needs a runtime dependency; an import inside a
function may come from an optional extra, and must then stay out of the
serving path's imports.  Today ``src/`` imports numpy and nothing else.
"""

from __future__ import annotations

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # Python >= 3.11

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _requirement_names(requirements):
    return {re.match(r"[A-Za-z0-9_.-]+", r).group(0).lower().replace("-", "_")
            for r in requirements}


def _third_party_imports():
    """``(package, module level?)`` for every absolute import under src/repro."""
    found = set()
    for path in (SRC / "repro").rglob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        top_level = set(map(id, tree.body))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for name in names:
                package = name.split(".")[0]
                if package != "repro" and package not in sys.stdlib_module_names:
                    found.add((package, id(node) in top_level))
    return found


def test_every_imported_package_is_declared():
    with open(ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    runtime = _requirement_names(project["dependencies"])
    anywhere = runtime | _requirement_names(
        r for extra in project["optional-dependencies"].values() for r in extra)
    imports = _third_party_imports()
    assert {package for package, _ in imports} == {"numpy"}
    for package, module_level in imports:
        assert package.lower() in (runtime if module_level else anywhere), package


def test_the_kernels_do_not_import_scipy():
    code = "import sys, repro.runtime.functional; print('scipy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "False"


def test_serving_path_does_not_import_networkx():
    code = "import sys, repro.pipeline, repro.serving; print('networkx' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "False"
