"""Provenance stamp of the perf-trajectory snapshot (``BENCH_core.json``).

The snapshot must name the code it measured: the short ``HEAD`` of a clean
tree, or ``HEAD+dirty`` when tracked files under ``src/`` or
``benchmarks/`` carry uncommitted edits.
"""

from __future__ import annotations

import importlib.util
import shutil
import subprocess
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parent.parent / "benchmarks" / "perf_trajectory.py"

pytestmark = pytest.mark.skipif(shutil.which("git") is None,
                                reason="git not installed")


@pytest.fixture(scope="module")
def stamp():
    spec = importlib.util.spec_from_file_location("perf_trajectory", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module._git_commit


def _git(root: Path, *args: str) -> str:
    return subprocess.check_output(
        ["git", "-c", "user.name=t", "-c", "user.email=t@example.com",
         "-c", "commit.gpgsign=false", *args],
        cwd=root, text=True,
    ).strip()


@pytest.fixture
def repo(tmp_path: Path) -> Path:
    for sub in ("src", "benchmarks"):
        (tmp_path / sub).mkdir()
        (tmp_path / sub / "mod.py").write_text("x = 1\n")
    (tmp_path / "README.md").write_text("readme\n")
    _git(tmp_path, "init", "-q")
    _git(tmp_path, "add", "-A")
    _git(tmp_path, "commit", "-q", "-m", "init")
    return tmp_path


def test_clean_tree_stamps_head(stamp, repo):
    head = _git(repo, "rev-parse", "--short", "HEAD")
    assert stamp(repo) == head


@pytest.mark.parametrize("sub", ["src", "benchmarks"])
def test_tracked_edit_under_measured_dirs_marks_dirty(stamp, repo, sub):
    head = _git(repo, "rev-parse", "--short", "HEAD")
    (repo / sub / "mod.py").write_text("x = 2\n")
    assert stamp(repo) == head + "+dirty"


def test_edits_elsewhere_and_untracked_files_stay_clean(stamp, repo):
    head = _git(repo, "rev-parse", "--short", "HEAD")
    (repo / "README.md").write_text("edited\n")
    (repo / "src" / "new.py").write_text("y = 1\n")
    assert stamp(repo) == head


def test_no_repository_is_unknown(stamp, tmp_path):
    assert stamp(tmp_path) == "unknown"
