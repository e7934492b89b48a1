"""Repository hygiene checks."""

import shutil
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


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
