"""The benchmark's command lines and span targets still fit the program.

bench/run.py drives `tacd.cli.main` with each workload's argv and
bench/spans.py wraps tacd callables by name; a rename or a changed option
would otherwise surface only when the benchmark runs. The bench modules are
imported read-only: no bytecode is written next to them.
"""
import importlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from tacd.cli import main as cli_main

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load_bench_run():
    saved_path, saved_flag = list(sys.path), sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec = importlib.util.spec_from_file_location("tacd_bench_run", BENCH / "run.py")
        module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path[:], sys.dont_write_bytecode = saved_path, saved_flag
    return module


bench_run = _load_bench_run()


@pytest.mark.parametrize("name, module, attr", bench_run.TARGETS, ids=[t[0] for t in bench_run.TARGETS])
def test_span_target_resolves(name, module, attr):
    obj = importlib.import_module(module)
    for part in attr.split("."):
        obj = getattr(obj, part)
    assert callable(obj), name


@pytest.mark.parametrize("workload", sorted(bench_run.WORKLOADS))
def test_workload_command_runs(workload, tmp_path):
    wl = bench_run.WORKLOADS[workload]
    argv = wl.argv(seed=0, runs=2, out_dir=str(tmp_path))
    assert "--workers" in argv
    assert cli_main(argv) == 0
    horizon = json.loads(Path(wl.config).read_text())["horizon"]
    summary = bench_run.check.summarize(tmp_path / wl.artifact)
    assert bench_run.check.shape_problems(summary, wl.rows(2, horizon), wl.required, wl.finite) == []
