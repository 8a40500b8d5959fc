"""Import hygiene: every export resolves, every imported name and private constant is used."""

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


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.stem)
def test_private_constants_are_read(path):
    # a module-level _NAME nobody reads is left over from deleted code
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assigned = set()
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        for target in targets:  # tuple targets such as `_A, _B = 1, 2` included
            assigned.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name)
                            and n.id.startswith("_") and not n.id.startswith("__"))
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    assert sorted(assigned - read) == []
