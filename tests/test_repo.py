"""Repository hygiene checks."""

import ast
import os
import re
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cubictrace"


def _git(*args):
    return subprocess.run(
        ["git", *args], cwd=ROOT, capture_output=True, text=True, check=False
    )


def test_no_tracked_file_is_gitignored():
    if shutil.which("git") is None or _git("rev-parse", "--is-inside-work-tree").stdout.strip() != "true":
        pytest.skip("not a git work tree")
    out = _git("ls-files", "-ci", "--exclude-standard")
    assert out.returncode == 0, out.stderr
    assert out.stdout == "", f"tracked files that .gitignore excludes:\n{out.stdout}"


def test_certifying_modules_have_no_bare_asserts():
    # certifying invariants must survive python -O
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def _top_level_names(tree):
    """Module-level functions, classes, methods and constants defined in tree."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
            methods = node.body if isinstance(node, ast.ClassDef) else []
            yield from ((m.name, m.lineno) for m in methods if isinstance(m, ast.FunctionDef))
        elif isinstance(node, ast.Assign):
            yield from ((t.id, node.lineno) for t in node.targets if isinstance(t, ast.Name))


def test_every_top_level_name_is_referenced():
    # a name that occurs only at its own definition is dead code
    corpus = "\n".join(
        path.read_text()
        for top in ("src", "tests", "perfbench")
        for path in sorted((ROOT / top).rglob("*.py"))
    )
    # a name is one \w+ run, so one tally of every word counts its \b-bounded uses
    words = Counter(re.findall(r"\w+", corpus))
    unreferenced = []
    for path in sorted(PACKAGE.glob("*.py")):
        for name, lineno in _top_level_names(ast.parse(path.read_text())):
            if name.startswith("__") and name.endswith("__"):
                continue
            if words[name] == 1:
                unreferenced.append(f"{path.name}:{lineno} {name}")
    assert unreferenced == []


def test_package_does_not_import_numpy():
    # numpy would double the peak RSS of a run (about 14 MB to 27 MB), so
    # the package and every submodule must import without it
    code = (
        "import importlib, pkgutil, sys, cubictrace\n"
        "names = [m.name for m in pkgutil.iter_modules(cubictrace.__path__)]\n"
        "for name in names:\n"
        "    importlib.import_module('cubictrace.' + name)\n"
        "print(len(names), 'numpy' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True, check=False
    )
    assert out.returncode == 0, out.stderr
    submodules = [f for f in PACKAGE.glob("*.py") if f.name != "__init__.py"]
    assert out.stdout.split() == [str(len(submodules)), "False"]
