"""tacd benchmark: Monte-Carlo runs per second through the `tacd` CLI.

Run from the repository root:

    python3 bench/run.py --workload evaluate-case3 --seed 1 --seconds 20 --trace 0

One workload per invocation. The workload seed is passed to the CLI as
`--seed`. The benchmark

1. times set-up (interpreter start, `import tacd.cli`, `load_config`) in
   fresh processes, alternating with a control probe that imports only
   numpy and scipy, so set-up too is given in reference seconds (trace 0
   only);
2. runs bench/loop.py as a child process, which issues the workload's CLI
   command through `tacd.cli.main` in a closed loop for `--seconds`: one
   client, one command at a time, at most nproc pool workers, with the
   control kernel (bench/control.py) timed between commands so that
   command times can be given in reference seconds, free of the host's
   speed at the moment;
3. checks every command's exit code and artifact (see bench/check.py);
4. prints each metric with its unit, an environment stamp, and as the last
   line one JSON object {correct, attempted, failed, metrics}.

With `--trace 0` the metrics are the end-to-end ones. With `--trace 1` the
seconds are split between an untraced loop and a loop with spans recorded
around each layer's public functions (bench/spans.py); the metrics are the
per-layer ones. Outputs go under .bench_out/<workload>/. bench/README.md
explains the workloads and metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import shlex
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import check  # noqa: E402
import control  # noqa: E402
from spans import TARGETS  # noqa: E402

OUT_ROOT = ".bench_out"
SETUP_SAMPLES = 7
CHILD_TIMEOUT_S = 150.0
WARMUP_RUNS = 2


@dataclass(frozen=True)
class Workload:
    subcommand: str
    config: str
    runs: int
    workers: int
    artifact: str
    required: tuple[str, ...]
    finite: tuple[str, ...]
    estimators: Optional[str] = None

    def argv(self, seed: int, runs: int, out_dir: str) -> list[str]:
        argv = [self.subcommand, "--config", self.config, "--runs", str(runs), "--seed", str(seed),
                "--out", out_dir, "--workers", str(self.workers)]
        if self.estimators:
            argv += ["--estimators", self.estimators]
        return argv

    def rows(self, runs: int, horizon: int) -> int:
        return {"rmse_summary.csv": 5, "trajectory.csv": runs * horizon, "fusion_study.csv": horizon}[self.artifact]


TRAJECTORY = ("run", "k", "theta_true", "delta_true", "T_osc", "T_meas", "theta_L", "theta_T", "theta_F",
              "delta_hat", "epsilon", "alpha", "beta", "bclb_L", "bclb_F")
FUSION = ("k", "rmse_single1", "rmse_single2", "rmse_fusion", "bclb_single", "bclb_fusion")

# Why each workload exists is recorded in bench/README.md.
WORKLOADS = {
    "evaluate-case3": Workload(
        "evaluate", "configs/case3.json", runs=20, workers=1, artifact="rmse_summary.csv",
        required=("estimator", "skew_rmse", "offset_rmse"), finite=("skew_rmse",),
    ),
    "simulate-baselines": Workload(
        "simulate", "configs/case2.json", runs=100, workers=1, artifact="trajectory.csv",
        required=TRAJECTORY,
        finite=("run", "k", "theta_true", "delta_true", "T_osc", "T_meas", "theta_T", "bclb_L", "bclb_F"),
        estimators="gptp,kalman,thermal-only",
    ),
    "fusion-study-w2": Workload(
        "fusion-study", "configs/fusion_study.json", runs=50, workers=2, artifact="fusion_study.csv",
        required=FUSION, finite=FUSION,
    ),
}

END_TO_END_UNITS = {"runs_per_s": "1/s", "cpu_ms_per_run": "ms", "setup_s": "s", "peak_rss_mb": "MB"}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name and unit, in report order."""
    units: dict[str, str] = {}
    for name, _, _ in TARGETS:
        units[f"{name}.calls"] = "count"
        if name == "clock.build_state_space":
            continue
        if name == "scenario.generate_scenario":
            units[f"{name}.us_per_period"] = "us"
        elif name == "report.emit_csv":
            units.update({f"{name}.us": "us", f"{name}.rows": "count", f"{name}.bytes": "B"})
        else:
            units[f"{name}.us_per_call"] = "us"
        units[f"{name}.self_share"] = "ratio"
    for name in ("netcomm.gsf_update.underflow", "netcomm.gsf_update.spd_repairs", "netcomm.vb_refine.dof_clamped"):
        units[name] = "count"
    for layer in _layers():
        units[f"{layer}.self_share"] = "ratio"
    units.update({"bench.untraced_runs_per_s": "1/s", "bench.traced_runs_per_s": "1/s",
                  "bench.trace_overhead": "ratio"})
    return units


def _layers() -> list[str]:
    return list(dict.fromkeys(name.split(".")[0] for name, _, _ in TARGETS))


def _git_sha(root: Path) -> str:
    """The checked-out commit, read from .git without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _run_child(argv: list[str], timeout: float) -> subprocess.CompletedProcess:
    """Run a child in its own process group; kill the whole group on timeout."""
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(f"child {argv[:3]} exceeded {timeout:.0f} s")
    return subprocess.CompletedProcess(argv, proc.returncode, out, None)


_SETUP_SNIPPET = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); import tacd.cli; "
    "from tacd.config import load_config; load_config(sys.argv[2]); print(repr(time.monotonic()))"
)


def _spawn_s(code: str, *args: str) -> float:
    """Seconds from spawning `python -c code args` until it prints time.monotonic()."""
    start = time.monotonic()
    done = _run_child([sys.executable, "-c", code, *args], timeout=60)
    if done.returncode != 0:
        raise SystemExit("set-up probe failed")
    return float(done.stdout.decode().strip()) - start


def measure_setup(src: Path, config: str, samples: int = SETUP_SAMPLES) -> dict[str, list[float]]:
    """Set-up probes (fresh interpreter until load_config returns) and, on
    either side of each, a control probe (control.SETUP_SNIPPET).

    One unrecorded probe first, so every recorded one finds bytecode cached.
    """
    _spawn_s(_SETUP_SNIPPET, str(src), config)
    out = {"probes": [], "controls": [_spawn_s(control.SETUP_SNIPPET)]}
    for _ in range(samples):
        out["probes"].append(_spawn_s(_SETUP_SNIPPET, str(src), config))
        out["controls"].append(_spawn_s(control.SETUP_SNIPPET))
    return out


def setup_seconds(setup: dict[str, list[float]]) -> float:
    """Median set-up time in reference seconds: each probe over the mean of
    the control probes around it, scaled by control.SETUP_REFERENCE_S."""
    ctl = setup["controls"]
    return control.SETUP_REFERENCE_S * statistics.median(
        p / (0.5 * (ctl[i] + ctl[i + 1])) for i, p in enumerate(setup["probes"]))


def cli_out_dir(workload: str) -> str:
    """Where the CLI writes, relative to the repository root (the child's cwd)."""
    return str(Path(OUT_ROOT) / workload / "artifacts")


def run_loop(root: Path, out_dir: Path, wl: Workload, seed: int, runs: int, seconds: float, trace: bool) -> dict:
    tag = "traced" if trace else "untraced"
    cli_out = cli_out_dir(out_dir.name)
    job = {
        "src": str(root / "src"),
        "argv": wl.argv(seed, runs, cli_out),
        "warmup_argv": wl.argv(seed, min(WARMUP_RUNS, runs), cli_out),
        "artifact": str(Path(cli_out) / wl.artifact),
        "seconds": seconds,
        "workers": wl.workers,
        "trace": trace,
        "result": str(out_dir / f"loop-{tag}.json"),
        "spans": str(out_dir / "spans.csv"),
    }
    done = _run_child([sys.executable, str(BENCH_DIR / "loop.py"), json.dumps(job)], CHILD_TIMEOUT_S)
    if done.returncode != 0:
        raise SystemExit(f"{tag} loop exited with {done.returncode}")
    result = json.loads(Path(job["result"]).read_text())
    result["artifact"] = str(root / job["artifact"])
    return result


def judge(result: dict, wl: Workload, seed: int, runs: int, horizon: int, reference: dict) -> tuple[int, list[str]]:
    """Failed commands of one loop, and the problems found.

    A command fails on a nonzero exit, an exception, a missing artifact, or
    an artifact whose bytes differ from the first command's (every command
    of a loop has the same inputs). The last artifact is then checked.
    """
    problems = []
    samples = result["samples"]
    first = next((s["digest"] for s in samples if s["digest"]), None)
    failed = 0
    for i, s in enumerate(samples):
        if s["rc"] != 0 or s["digest"] is None or s["digest"] != first:
            failed += 1
            problems.append(f"command {i}: exit {s['rc']}, error {s['error']}, digest {s['digest']}")
    if first is None:
        return failed, problems
    try:
        summary = check.summarize(result["artifact"])
    except (OSError, ValueError, StopIteration) as exc:
        return len(samples), problems + [f"artifact unreadable: {exc}"]
    bad = check.shape_problems(summary, wl.rows(runs, horizon), list(wl.required), list(wl.finite))
    ref = reference.get(str(runs), {}).get(str(seed))
    if ref is not None:
        bad += check.reference_problems(summary, ref)
    else:
        print(f"note: no reference for seed {seed} at {runs} runs; checked shape and finiteness only",
              file=sys.stderr)
    if bad:
        failed = len(samples)
        problems += bad
    return failed, problems


def reference_seconds(result: dict, key: str) -> float:
    """Median command time in reference seconds ("wall_s" or "cpu_s").

    Each command's time is divided by the mean of the control kernel's
    times just before and just after it, which cancels the host's speed at
    that moment, and scaled by control.REFERENCE_S. Failed commands are
    left out unless every command failed.
    """
    ctl = result["controls"]
    pairs = [(s, ctl[i], ctl[i + 1]) for i, s in enumerate(result["samples"])]
    ok = [p for p in pairs if p[0]["rc"] == 0] or pairs
    return control.REFERENCE_S * statistics.median(s[key] / (0.5 * (a[key] + b[key])) for s, a, b in ok)


def runs_per_s(result: dict, runs: int) -> float:
    return runs / reference_seconds(result, "wall_s")


def end_to_end(result: dict, wl: Workload, runs: int, setup: dict[str, list[float]]) -> dict[str, float]:
    workers_rss = wl.workers * result["children_maxrss_kb"] if result["children_maxrss_kb"] else 0
    return {
        "runs_per_s": runs_per_s(result, runs),
        "cpu_ms_per_run": 1000.0 * reference_seconds(result, "cpu_s") / runs,
        "setup_s": setup_seconds(setup),
        "peak_rss_mb": (result["maxrss_kb"] + workers_rss) / 1024.0,
    }


def host(result: dict, runs: int) -> dict[str, float]:
    """Unscaled figures of a loop, for the environment stamp."""
    walls = [s["wall_s"] for s in result["samples"]]
    return {
        "control_median_s": statistics.median(c["wall_s"] for c in result["controls"]),
        "runs_per_wall_s_median": runs / statistics.median(walls),
        "runs_per_wall_s_fastest": runs / min(walls),
    }


def per_layer(traced: dict, untraced: dict, runs: int) -> dict[str, float]:
    """Per-command counts, mean microseconds, and shares of traced CLI time."""
    summary = traced["trace"]
    stats = summary["stats"]
    commands = len(traced["samples"])
    root = summary["root_ns"] or 1
    out: dict[str, float] = {}
    for name, s in stats.items():
        calls = s["calls"]
        out[f"{name}.calls"] = calls / commands
        if name == "clock.build_state_space":
            continue
        if name == "scenario.generate_scenario":
            out[f"{name}.us_per_period"] = s["incl_ns"] / 1000.0 / s["periods"] if s.get("periods") else 0.0
        elif name == "report.emit_csv":
            out[f"{name}.us"] = s["incl_ns"] / 1000.0 / calls if calls else 0.0
            out[f"{name}.rows"] = s.get("rows", 0) / calls if calls else 0.0
            out[f"{name}.bytes"] = s.get("bytes", 0) / calls if calls else 0.0
        else:
            out[f"{name}.us_per_call"] = s["incl_ns"] / 1000.0 / calls if calls else 0.0
        out[f"{name}.self_share"] = s["self_ns"] / root
    out["netcomm.gsf_update.underflow"] = stats["netcomm.gsf_update"].get("underflow", 0) / commands
    out["netcomm.gsf_update.spd_repairs"] = stats["netcomm.gsf_update"].get("spd_repairs", 0) / commands
    out["netcomm.vb_refine.dof_clamped"] = stats["netcomm.vb_refine"].get("dof_clamped", 0) / commands
    for layer in _layers():
        out[f"{layer}.self_share"] = sum(s["self_ns"] for n, s in stats.items() if n.split(".")[0] == layer) / root
    fast, slow = runs_per_s(untraced, runs), runs_per_s(traced, runs)
    out["bench.untraced_runs_per_s"] = fast
    out["bench.traced_runs_per_s"] = slow
    out["bench.trace_overhead"] = 1.0 - slow / fast
    return out


def load_reference(name: str) -> dict:
    path = BENCH_DIR / "reference.json"
    if not path.exists():
        return {}
    return json.loads(path.read_text()).get(name, {})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--runs", type=int, default=None, help="override the workload's runs per command")
    args = parser.parse_args(argv)

    root = Path.cwd()
    wl = WORKLOADS[args.workload]
    runs = args.runs or wl.runs
    if not (root / "src" / "tacd" / "cli.py").is_file() or not (root / wl.config).is_file():
        print(f"error: run from the repository root; {root} has no src/tacd or {wl.config}", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    if wl.workers > nproc:
        print(f"error: {args.workload} needs {wl.workers} workers but nproc is {nproc}", file=sys.stderr)
        return 2
    if args.seconds <= 0 or runs < 1:
        print("error: --seconds and --runs must be positive", file=sys.stderr)
        return 2

    out_dir = root / OUT_ROOT / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)
    load_at_start = os.getloadavg()
    horizon = json.loads((root / wl.config).read_text())["horizon"]
    reference = load_reference(args.workload)

    loops: list[dict] = []
    failed = 0
    problems: list[str] = []

    def loop(seconds: float, trace: bool) -> dict:
        nonlocal failed
        result = run_loop(root, out_dir, wl, args.seed, runs, seconds, trace)
        f, p = judge(result, wl, args.seed, runs, horizon, reference)
        failed += f
        problems.extend(p)
        loops.append(result)
        return result

    if args.trace:
        untraced = loop(args.seconds / 2, trace=False)
        traced = loop(args.seconds / 2, trace=True)
        metrics, units = per_layer(traced, untraced, runs), per_layer_units()
        if traced["trace"]["missing"]:
            print(f"note: not found, reported as 0: {traced['trace']['missing']}", file=sys.stderr)
    else:
        setup = measure_setup(root / "src", wl.config)
        result = loop(args.seconds, trace=False)
        metrics, units = end_to_end(result, wl, runs, setup), END_TO_END_UNITS

    attempted = sum(len(r["samples"]) for r in loops)
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)

    env = {
        "git_sha": _git_sha(root),
        "nproc": nproc,
        **loops[0]["versions"],
        "command": "tacd " + shlex.join(wl.argv(args.seed, runs, cli_out_dir(args.workload))),
        "runs_per_command": runs,
        "horizon": horizon,
        "loadavg_at_start": list(load_at_start),
        "commands": [len(loop["samples"]) for loop in loops],
        "unscaled": [host(loop, runs) for loop in loops],
    }
    if not args.trace:
        env["unscaled_setup"] = {"probe_median_s": statistics.median(setup["probes"]),
                                 "control_median_s": statistics.median(setup["controls"])}
    for name, value in metrics.items():
        print(f"{name} = {value!r} {units[name]}")
    print("env " + json.dumps(env))
    line = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    stamp = {**line, "env": env, "samples": [loop["samples"] for loop in loops], "problems": problems}
    (out_dir / f"result-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(stamp, indent=1))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
