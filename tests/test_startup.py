"""scipy is loaded by the VB refinement alone.

netcomm.vb_refine imports scipy.special on its first call, so commands that
run no VB step (bclb, plot, and simulate/evaluate without `tacd` or
`linear-only`) start without it. Pytest's own process already holds scipy
(tests/oracles.py), so the commands run in one fresh interpreter, which
reports which of them found scipy loaded. The test checks imports, not
timings.
"""
import json
import os
import subprocess
import sys

from conftest import ROOT, config_path

CHILD = """
import json, sys
out, config = sys.argv[1], sys.argv[2]
import tacd.cli
from tacd.config import load_config
load_config(config)
seen = {"import": "scipy" in sys.modules}
steps = {
    "bclb": ["bclb", "--config", config, "--out", out],
    "plot": ["plot", out + "/bclb.csv", "--y", "bclb_L,bclb_F", "--out", out + "/bclb.svg"],
    "simulate": ["simulate", "--config", config, "--runs", "2", "--out", out, "--workers", "1",
                 "--estimators", "gptp,kalman,thermal-only"],
    "evaluate": ["evaluate", "--config", config, "--runs", "2", "--out", out, "--workers", "1",
                 "--estimators", "tacd,gptp"],
}
for name, argv in steps.items():
    if tacd.cli.main(argv) != 0:
        raise SystemExit(f"{name} failed")
    seen[name] = {"scipy": "scipy" in sys.modules, "scipy.special": "scipy.special" in sys.modules}
print(json.dumps(seen))
"""


def test_only_the_vb_refinement_loads_scipy(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(tmp_path), str(config_path("case2"))],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.splitlines()[-1])
    assert seen["import"] is False
    for name in ("bclb", "plot", "simulate"):
        assert seen[name]["scipy"] is False, f"scipy loaded by {name}"
    assert seen["evaluate"]["scipy.special"] is True
