"""scipy is loaded by the VB refinement alone, and no tacd module by
`import tacd`.

netcomm.vb_refine imports scipy.special on its first call, so commands that
run no VB step (bclb, plot, and simulate/evaluate without `tacd` or
`linear-only`) start without it. Pytest's own process already holds scipy
(tests/oracles.py), so the commands run in one fresh interpreter, which
reports whether each of them found scipy loaded. The package re-exports
nothing, so every name has one import path: its defining module. The tests
check imports, not timings.
"""
import json
import os
import subprocess
import sys

import pytest

from conftest import ROOT, config_path

CHILD = """
import json, sys
out, config = sys.argv[1], sys.argv[2]
import tacd
package = sorted(name for name in sys.modules if name.startswith("tacd."))
import tacd.cli
from tacd.config import load_config
load_config(config)


def loaded():
    return {"scipy": "scipy" in sys.modules, "scipy.special": "scipy.special" in sys.modules}


seen = {"package": package, "import": loaded()}
steps = {
    "bclb": ["bclb", "--config", config, "--out", out + "/bclb"],
    "plot": ["plot", out + "/bclb/bclb.csv", "--y", "bclb_L,bclb_F", "--out", out + "/bclb.svg"],
    "simulate": ["simulate", "--config", config, "--runs", "4", "--out", out + "/simulate",
                 "--estimators", "gptp,kalman,thermal-only"],
    "evaluate": ["evaluate", "--config", config, "--runs", "2", "--out", out + "/evaluate", "--estimators", "tacd,gptp"],
}


def run(name, argv):
    if tacd.cli.main(argv) != 0:
        raise SystemExit(f"{name} failed")
    seen[name] = loaded()


for name, argv in steps.items():
    run(name, argv)
print(json.dumps(seen))
"""


@pytest.fixture(scope="module")
def child(tmp_path_factory):
    """Run every command in one fresh interpreter; return what each step
    found loaded."""
    out = tmp_path_factory.mktemp("startup")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(out), str(config_path("case2"))],
        cwd=out, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_the_package_import_loads_no_tacd_module(child):
    assert child["package"] == []


def test_only_the_vb_refinement_loads_scipy(child):
    for name in ("import", "bclb", "plot", "simulate"):
        assert child[name]["scipy"] is False, f"scipy loaded by {name}"
    assert child["evaluate"]["scipy.special"] is True
