"""Smoke test of the benchmark itself, at tiny size (about a minute).

Run from the repository root:

    python3 bench/selftest.py

For every workload, with --runs 2 --seconds 1 and seed 0 (which has a
recorded reference at that size), it asserts that:

* run.py exits 0 in both trace modes, its last stdout line is the result
  object, the correctness check passed, and every metric BENCHMARK.json
  names for that mode is printed with its unit;
* the check rejects the artifact after one value is changed by 1e-6
  relative, and still accepts a change of 1e-13 relative;
* run.py exits nonzero, printing no result, in a directory without the
  tacd sources.
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import run
from record_reference import SELFTEST_RUNS

ROOT = Path.cwd()


def bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    argv = [sys.executable, str(run.BENCH_DIR / "run.py"), "--workload", workload, "--seed", "0",
            "--seconds", "1", "--trace", str(trace), "--runs", str(SELFTEST_RUNS)]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170)


def check_metrics(workload: str, trace: int, spec: dict) -> None:
    done = bench(workload, trace)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, (result, done.stderr)
    wanted = spec["per_layer" if trace else "end_to_end"]
    for metric in wanted:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"], (metric, got)
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"]), got
        assert any(line.startswith(f"{metric['name']} = ") and line.endswith(f" {metric['unit']}") for line in lines)
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values()), result["metrics"]


def perturbed(src: Path, dst: Path, rel: float) -> None:
    """Copy the CSV, scaling the first nonzero finite number of the last column."""
    header, *rows = src.read_text().splitlines()
    for i, row in enumerate(rows):
        cells = row.split(",")
        value = float(cells[-1])
        if math.isfinite(value) and value != 0.0:
            cells[-1] = repr(value * (1.0 + rel))
            rows[i] = ",".join(cells)
            break
    dst.write_text("\n".join([header, *rows]) + "\n")


def check_perturbation(workload: str) -> None:
    wl = run.WORKLOADS[workload]
    art = ROOT / run.OUT_ROOT / workload / "artifacts" / wl.artifact
    horizon = json.loads((ROOT / wl.config).read_text())["horizon"]
    reference = run.load_reference(workload)
    fake = {"samples": [{"rc": 0, "error": None, "digest": "x"}]}
    for rel, should_pass in ((0.0, True), (1e-13, True), (1e-6, False)):
        copy = art.with_name(f"perturbed-{wl.artifact}")
        perturbed(art, copy, rel)
        failed, problems = run.judge({**fake, "artifact": str(copy)}, wl, 0, SELFTEST_RUNS, horizon, reference)
        assert (failed == 0) == should_pass, (workload, rel, problems)
        copy.unlink()


def check_refuses_without_sources() -> None:
    bare = ROOT / run.OUT_ROOT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.BENCH_DIR, bare / run.BENCH_DIR.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    done = bench("evaluate-case3", 0, cwd=bare)
    assert done.returncode != 0 and not done.stdout.strip(), (done.returncode, done.stdout)
    shutil.rmtree(bare)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            check_metrics(workload, trace, spec)
        check_perturbation(workload)
        print(f"ok {workload}")
    check_refuses_without_sources()
    print("ok refuses to run without src/tacd")
    return 0


if __name__ == "__main__":
    sys.exit(main())
