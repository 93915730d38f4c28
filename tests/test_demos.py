"""Smoke test: every narrative script under demos/ runs to completion.

Each demo runs in a subprocess on a copy of demos/ and configs/ under
tmp_path, so whatever it writes next to itself stays out of the repository.
"""
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted(p.name for p in (ROOT / "demos").glob("*.py"))


@pytest.fixture(scope="module")
def demo_tree(tmp_path_factory) -> Path:
    tree = tmp_path_factory.mktemp("demo_tree")
    shutil.copytree(ROOT / "demos", tree / "demos", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copytree(ROOT / "configs", tree / "configs")
    return tree


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo, demo_tree):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, str(demo_tree / "demos" / demo)],
        cwd=demo_tree, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
