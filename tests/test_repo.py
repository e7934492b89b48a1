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


def _package_names():
    """(module file name, name, lineno) of every non-dunder package definition."""
    for path in sorted(PACKAGE.glob("*.py")):
        for name, lineno in _top_level_names(ast.parse(path.read_text())):
            if not (name.startswith("__") and name.endswith("__")):
                yield path.name, name, lineno


def _words(*tops, skip=()):
    """Tally of every \\w+ run in the .py files under the given top directories.

    A name is one \\w+ run, so the tally counts its \\b-bounded uses.
    """
    corpus = "\n".join(
        path.read_text()
        for top in tops
        for path in sorted((ROOT / top).rglob("*.py"))
        if path.name not in skip
    )
    return Counter(re.findall(r"\w+", corpus))


def test_every_top_level_name_is_referenced():
    # a name that occurs only at its own definition is dead code
    words = _words("src", "tests", "perfbench")
    unreferenced = [
        f"{module}:{lineno} {name}" for module, name, lineno in _package_names() if words[name] == 1
    ]
    assert unreferenced == []


# Package definitions that only tests reach, each with the ROADMAP item that
# will give it a caller: 10(a) makes it a second route in a verify-all
# criterion, 16 prints reproducers with it.  The list may only shrink.
TEST_ONLY = {
    "cubic_degenerate": "10(a)",
    "finite_jet": "10(a)",
    "shifted_jet": "10(a)",
    "higher_order_transverse": "10(a)",
    "orbit_preimage_count": "10(a)",
    "homogeneous_singular_count": "10(a)",
    "average_singular": "10(a)",
    "nodal_parametrization": "10(a)",
    "nonemptiness_check": "10(a)",
    "format_element": "16",
}


def test_test_only_names_are_the_allowlist():
    # a name that src/ and perfbench/ use only at its definition, but tests
    # call, restates the product or waits for a caller; none may be added
    product = _words("src", "perfbench")
    tests = _words("tests", skip=(Path(__file__).name,))
    found = {name for _, name, _ in _package_names() if product[name] == 1 and tests[name]}
    assert found == set(TEST_ONLY)


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
