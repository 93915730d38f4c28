"""scipy is loaded by the VB refinement alone, the pool's modules by a
started pool alone, and no tacd module by `import tacd`.

netcomm.vb_refine imports scipy.special on its first call, so commands that
run no VB step (bclb, plot, and simulate/evaluate without `tacd` or
`linear-only`) start without it. runner.run_case imports the process pool
(multiprocessing, concurrent.futures.process) only where it starts one, so
no command that runs in-process loads them, whatever its `--workers`.
Pytest's own process already holds scipy (tests/oracles.py) and the pool
modules, so the commands run in one fresh interpreter, which reports which
of these modules each of them found loaded. concurrent.futures itself is
not checked: scipy.special imports it. The package re-exports nothing, so
every name has one import path: its defining module. The tests check
imports, not timings.
"""
import json
import os
import subprocess
import sys

import pytest

from conftest import ROOT, config_path

CHILD = """
import json, os, sys
out, config = sys.argv[1], sys.argv[2]
import tacd
package = sorted(name for name in sys.modules if name.startswith("tacd."))
import tacd.cli
from tacd.config import load_config
load_config(config)


def loaded():
    return {"scipy": "scipy" in sys.modules, "scipy.special": "scipy.special" in sys.modules,
            "pool": [m for m in ("multiprocessing", "concurrent.futures.process") if m in sys.modules]}


def simulate(name, workers):
    return ["simulate", "--config", config, "--runs", "4", "--out", f"{out}/{name}", "--workers", workers,
            "--estimators", "gptp,kalman,thermal-only"]


seen = {"package": package, "import": loaded()}
steps = {
    "bclb": ["bclb", "--config", config, "--out", out + "/bclb"],
    "plot": ["plot", out + "/bclb/bclb.csv", "--y", "bclb_L,bclb_F", "--out", out + "/bclb.svg"],
    "simulate": simulate("simulate", "1"),
    "evaluate": ["evaluate", "--config", config, "--runs", "2", "--out", out + "/evaluate", "--workers", "1",
                 "--estimators", "tacd,gptp"],
    # two workers, but fewer runs than the pool floor: in-process
    "fusion-study": ["fusion-study", "--config", config, "--runs", "50", "--workers", "2",
                     "--out", out + "/fusion-study"],
}


def run(name, argv):
    if tacd.cli.main(argv) != 0:
        raise SystemExit(f"{name} failed")
    seen[name] = loaded()


for name, argv in steps.items():
    run(name, argv)
cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
if cpus >= 2:
    tacd.runner._RUNS_PER_PART = 1  # four runs in two slices
    run("pool", simulate("pool", "2"))
print(json.dumps(seen))
"""


@pytest.fixture(scope="module")
def child(tmp_path_factory):
    """Run every command in one fresh interpreter; return its output
    directory and what each step found loaded."""
    out = tmp_path_factory.mktemp("startup")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(out), str(config_path("case2"))],
        cwd=out, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return out, json.loads(proc.stdout.splitlines()[-1])


def test_the_package_import_loads_no_tacd_module(child):
    _, seen = child
    assert seen["package"] == []


def test_only_the_vb_refinement_loads_scipy(child):
    _, seen = child
    for name in ("import", "bclb", "plot", "simulate"):
        assert seen[name]["scipy"] is False, f"scipy loaded by {name}"
    assert seen["evaluate"]["scipy.special"] is True


def test_in_process_commands_load_no_pool_modules(child):
    _, seen = child
    for name in ("import", "bclb", "plot", "simulate", "evaluate", "fusion-study"):
        assert seen[name]["pool"] == [], f"pool modules loaded by {name}"


def test_a_started_pool_loads_the_pool_modules(child):
    out, seen = child
    if "pool" not in seen:
        pytest.skip("fewer than two usable CPUs: run_case starts no pool")
    assert seen["pool"]["pool"] == ["multiprocessing", "concurrent.futures.process"]
    assert (out / "pool" / "trajectory.csv").read_bytes() == (out / "simulate" / "trajectory.csv").read_bytes()
