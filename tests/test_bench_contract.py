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

from tacd import report
from tacd.cli import main as cli_main

from conftest import ROOT, config_path

BENCH = ROOT / "bench"


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
def test_workload_command_runs(workload, tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)  # a workload's argv is relative to the repository, as bench/run.py runs it
    wl = bench_run.WORKLOADS[workload]
    argv = wl.argv(seed=0, runs=2, out_dir=str(tmp_path))
    assert "--workers" in argv
    assert cli_main(argv) == 0
    horizon = json.loads(Path(wl.config).read_text())["horizon"]
    summary = bench_run.check.summarize(tmp_path / wl.artifact)
    assert bench_run.check.shape_problems(summary, wl.rows(2, horizon), wl.required, wl.finite) == []


def test_trajectory_rows_reach_emit_csv_in_one_call(tmp_path, monkeypatch):
    # bench/spans.py counts report.emit_csv's rows by wrapping it wherever a
    # tacd module binds it, so every row of the artifact must pass that name
    orig, calls = report.emit_csv, []

    def counting(rows, *args, **kwargs):
        counted = [0]

        def count(it):
            for row in it:
                counted[0] += 1
                yield row

        out = orig(count(rows), *args, **kwargs)
        calls.append(counted[0])
        return out

    for name, mod in list(sys.modules.items()):
        if name == "tacd" or name.startswith("tacd."):
            for key, value in list(vars(mod).items()):
                if value is orig:
                    monkeypatch.setattr(mod, key, counting)
    monkeypatch.chdir(ROOT)  # a workload's argv is relative to the repository, as bench/run.py runs it
    wl = bench_run.WORKLOADS["simulate-baselines"]
    assert cli_main(wl.argv(seed=0, runs=3, out_dir=str(tmp_path))) == 0
    horizon = json.loads(Path(wl.config).read_text())["horizon"]
    assert calls == [3 * horizon]
    assert (tmp_path / wl.artifact).read_bytes().count(b"\n") == 1 + 3 * horizon


def test_traced_filter_counters_are_attributes(tmp_path, monkeypatch):
    # bench/spans.py reads underflow, spd_repairs and dof_clamped with
    # getattr(out, name, 0), so a lost attribute would read 0 with no error:
    # evaluate case3 through counting wrappers bound wherever a tacd module
    # binds the functions the tracer wraps; tacd and linear-only share one
    # filter pass, one step per period after the first
    wrapped = ("netcomm.gsf_predict", "netcomm.gsf_update", "netcomm.vb_refine")
    outs = {name: [] for name in wrapped}
    for name, module, attr in bench_run.TARGETS:
        if name not in outs:
            continue
        orig = getattr(importlib.import_module(module), attr)

        def counting(*args, _orig=orig, _out=outs[name], **kwargs):
            _out.append(_orig(*args, **kwargs))
            return _out[-1]

        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "tacd" or mod_name.startswith("tacd."):
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        monkeypatch.setattr(mod, key, counting)
    config = config_path("case3")
    argv = ["evaluate", "--config", str(config), "--runs", "2", "--workers", "1", "--out", str(tmp_path)]
    assert cli_main(argv) == 0
    horizon = json.loads(config.read_text())["horizon"]
    assert [len(outs[name]) for name in wrapped] == [horizon - 1] * 3
    assert all(type(out.underflow) is int and type(out.spd_repairs) is int for out in outs["netcomm.gsf_update"])
    assert all(type(out.dof_clamped) is bool for out in outs["netcomm.vb_refine"])
