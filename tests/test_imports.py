"""Every name a package module imports is used in that module, and every
name a module exports exists.

The one exception is a name ``perfbench/spans.py`` patches in a module
without the module calling it: the tracer replaces ``random_hv`` wherever
it was imported by name, ``data_io`` included, and fails if it is missing
there (see tests/test_trace_hooks.py).
"""

import ast
import importlib
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "hdglue"
PATCHED_BY_TRACER = {"data_io": {"random_hv"}}


def _unused_imports(source: str) -> set[str]:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return imported - used


@pytest.mark.parametrize("module", sorted(p.stem for p in PACKAGE.glob("*.py")
                                          if p.stem != "__init__"))
def test_module_uses_every_import(module):
    unused = _unused_imports((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    assert unused - PATCHED_BY_TRACER.get(module, set()) == set()


def test_scan_finds_an_unused_import():
    assert _unused_imports("import os\nfrom a import b as c, d\nprint(d)\n") == {"os", "c"}


@pytest.mark.parametrize("module", sorted(p.stem for p in PACKAGE.glob("*.py")))
def test_every_exported_name_exists(module):
    mod = importlib.import_module("hdglue" if module == "__init__" else f"hdglue.{module}")
    exported = getattr(mod, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [name for name in exported if not hasattr(mod, name)] == []
