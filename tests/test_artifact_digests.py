"""Byte identity of every CLI artifact on the shipped configs.

Each subcommand runs on each shipped config, with --runs 3 where it takes
--runs (bclb runs no Monte-Carlo runs). evaluate runs again with --runs 40,
where many rows share each filter pass, and simulate with --runs 40, whose
trajectory table holds many runs of every column; the SHA-256 digest of
every file written is compared with tests/artifact_digests.json.
A mismatch means the arithmetic or the output format changed. The digests
hold for the numpy/scipy versions recorded beside them; with other versions
the last bits of a float may differ for reasons outside this code, so the
test skips there. After a change that is meant to alter the artifacts,
re-record with `PYTHONPATH=src python tests/test_artifact_digests.py` and
say which bytes changed and why.
"""
import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

from tacd import cli

from conftest import ROOT, SHIPPED, config_path

DIGESTS = ROOT / "tests" / "artifact_digests.json"
SUBCOMMANDS = ("simulate", "evaluate", "fusion-study", "bclb")
RUNS = 3
LARGE_RUNS = 40
LARGE_RUN_SUBCOMMANDS = ("evaluate", "simulate")


def _versions() -> dict[str, str]:
    return {"numpy": np.__version__, "scipy": scipy.__version__}


def _prefix(config: str, sub: str, runs: int) -> str:
    """Key prefix of one command's files; <sub>@<runs> at a run count other
    than RUNS."""
    return f"{config}/{sub}/" if runs == RUNS else f"{config}/{sub}@{runs}/"


def _artifact_digests(config: str, sub: str, out: Path, runs: int = RUNS) -> dict[str, str]:
    """Run one subcommand into out; {"<prefix><file>": sha256}."""
    flags = ["--runs", str(runs)] if "--runs" in cli.SUBCOMMANDS[sub].flags else []
    rc = cli.main([sub, "--config", str(config_path(config)), "--out", str(out)] + flags)
    assert rc == 0, (config, sub, runs)
    return {
        _prefix(config, sub, runs) + p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.iterdir())
    }


def _check(config: str, sub: str, out: Path, runs: int = RUNS) -> None:
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))
    if recorded["versions"] != _versions():
        pytest.skip(f"digests recorded with {recorded['versions']}, running {_versions()}")
    got = _artifact_digests(config, sub, out, runs)
    prefix = _prefix(config, sub, runs)
    want = {key: value for key, value in recorded["digests"].items() if key.startswith(prefix)}
    assert got == want


@pytest.mark.parametrize("sub", SUBCOMMANDS)
@pytest.mark.parametrize("config", SHIPPED)
def test_artifact_digests(config, sub, tmp_path):
    _check(config, sub, tmp_path / "out")


@pytest.mark.parametrize("config", SHIPPED)
def test_evaluate_digests_at_large_runs(config, tmp_path):
    _check(config, "evaluate", tmp_path / "out", LARGE_RUNS)


@pytest.mark.parametrize("config", SHIPPED)
def test_simulate_digests_at_large_runs(config, tmp_path):
    _check(config, "simulate", tmp_path / "out", LARGE_RUNS)


if __name__ == "__main__":
    import tempfile

    digests: dict[str, str] = {}
    with tempfile.TemporaryDirectory() as tmp:
        for config in SHIPPED:
            for sub in SUBCOMMANDS:
                digests.update(_artifact_digests(config, sub, Path(tmp) / config / sub))
            for sub in LARGE_RUN_SUBCOMMANDS:
                digests.update(_artifact_digests(config, sub, Path(tmp) / config / f"{sub}@large", LARGE_RUNS))
    doc = {"runs": RUNS, "large_runs": LARGE_RUNS, "versions": _versions(), "digests": digests}
    DIGESTS.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(digests)} digests to {DIGESTS}", file=sys.stderr)
