"""Import hygiene: every export resolves, every imported name and private constant is used."""

import ast
import importlib
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import smoothrq

SOURCES = sorted(Path(smoothrq.__file__).parent.glob("*.py"))
README = Path(__file__).resolve().parent.parent / "README.md"


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


def test_runtime_never_imports_scipy(tmp_path):
    # scipy is the tests' HiGHS oracle only; a lazy import anywhere in the
    # CLI's paths would move its start-up cost into the first solve
    out = str(tmp_path)
    commands = [
        ["grid", "--data", "anscombe", "--grid", "99", "--methods", "rq,srq,smrq,rrq",
         "--suppress", "--svg", "--out", f"{out}/grid"],
        ["grid", "--data", "anscombe", "--grid", "99", "--methods", "rq,flex",
         "--c", "5", "--h", "0", "--s", "0.5", "--v", "0", "--out", f"{out}/flex"],
        ["fit", "--data", "anscombe", "--tau", "0.5", "--method", "rq"],
        ["bench", "--kind", "normal", "--sizes", "20", "--replicates", "1", "--seed", "1",
         "--methods", "rq,rrq,srq,smrq", "--out", f"{out}/bench"],
    ]
    code = (f"import json, sys; sys.path.insert(0, {str(SOURCES[0].parent.parent)!r})\n"
            "from smoothrq import cli\n"
            f"codes = [cli.main(argv) for argv in {commands!r}]\n"
            "print(json.dumps([codes, 'scipy' in sys.modules]))\n")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout.splitlines()[-1]) == [[0, 0, 0, 0], False]


def test_one_failure_rule_names_failed_levels():
    # estimators._failure_rule is the only place a level's failure gets its
    # "<fit> failed at tau=" name; a second f-string would be a second rule
    builders = [f"{path.stem}:{node.lineno}" for path in SOURCES
                for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                if isinstance(node, ast.JoinedStr)
                and any(isinstance(part, ast.Constant) and "failed at tau=" in part.value
                        for part in node.values)]
    assert len(builders) == 1 and builders[0].startswith("estimators:"), builders


def test_every_export_is_documented():
    # a name the package exports is public, so the README has to say what it
    # is; the solvers are internal to the fits and are not exported
    text = README.read_text(encoding="utf-8")
    names = [name for name in smoothrq.__all__ if name != "__version__"]
    assert [name for name in names if not re.search(rf"\b{re.escape(name)}\b", text)] == []
    assert {"LPProblem", "solve_lp_simplex", "minimize_qn"}.isdisjoint(smoothrq.__all__)


def test_one_owner_labels_an_rq_optimum():
    # the simplex reports tied columns; only fit_rq_lp decides whether they
    # make an rq optimum "degenerate-multiple"
    readers = sorted({f"{path.stem}:{fn.name}" for path in SOURCES
                      for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                      if isinstance(fn, ast.FunctionDef)
                      for node in ast.walk(fn)
                      if isinstance(node, ast.Name) and node.id == "DEGENERATE_MULTIPLE"})
    assert readers == ["estimators:fit_rq_lp"]
