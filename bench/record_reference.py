"""Record the reference artifact summaries that bench/check.py compares with.

Run from the repository root, only at a commit whose outputs are known to
be right (the file it writes defines "correct" for later commits):

    python3 bench/record_reference.py

For every workload it runs the benchmark's CLI command once per seed in
SEEDS, at the workload's runs per command, and once for seed 0 at
SELFTEST_RUNS (used by bench/selftest.py), and writes bench/reference.json.
"""
from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import check
import run

SEEDS = range(32)
SELFTEST_RUNS = 2


def record(root: Path) -> dict:
    sys.path.insert(0, str(root / "src"))
    import tacd.cli

    out: dict = {}
    for name, wl in run.WORKLOADS.items():
        cli_out = root / run.OUT_ROOT / "reference" / name
        jobs = [(wl.runs, seed) for seed in SEEDS] + [(SELFTEST_RUNS, 0)]
        for runs, seed in jobs:
            with contextlib.redirect_stdout(io.StringIO()):
                rc = tacd.cli.main(wl.argv(seed, runs, str(cli_out)))
            if rc != 0:
                raise SystemExit(f"{name} seed {seed} runs {runs}: exit {rc}")
            summary = check.summarize(cli_out / wl.artifact)
            out.setdefault(name, {}).setdefault(str(runs), {})[str(seed)] = summary
        print(f"recorded {name}", file=sys.stderr)
    return out


def main() -> int:
    reference = record(Path.cwd())
    (run.BENCH_DIR / "reference.json").write_text(_dump(reference))
    return 0


def _dump(reference: dict) -> str:
    """JSON with one line per (workload, runs, seed), so diffs stay readable."""
    parts = []
    for name, by_runs in reference.items():
        runs_parts = []
        for runs, by_seed in by_runs.items():
            seed_parts = [f'      "{seed}": {json.dumps(s, separators=(",", ":"))}' for seed, s in by_seed.items()]
            runs_parts.append(f'    "{runs}": {{\n' + ",\n".join(seed_parts) + "\n    }")
        parts.append(f'  "{name}": {{\n' + ",\n".join(runs_parts) + "\n  }")
    return "{\n" + ",\n".join(parts) + "\n}\n"


if __name__ == "__main__":
    sys.exit(main())
