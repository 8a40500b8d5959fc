"""Import hygiene: every export resolves and every imported name is used."""

import ast
import importlib
from pathlib import Path

import pytest

import smoothrq

SOURCES = sorted(Path(smoothrq.__file__).parent.glob("*.py"))


def load(path):
    return importlib.import_module(
        "smoothrq" if path.stem == "__init__" else f"smoothrq.{path.stem}")


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.stem)
def test_exports_resolve(path):
    module = load(path)
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.stem)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    # a package re-exports what it imports through __all__
    assert sorted(imported - read - set(load(path).__all__)) == []
