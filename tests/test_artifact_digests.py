"""Byte identity of every CLI artifact on the shipped configs.

Each subcommand runs on each shipped config, with --runs 3 where it takes
--runs (bclb runs no Monte-Carlo runs), and the SHA-256 digest of every
file it writes is compared with tests/artifact_digests.json.
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
from tacd.config import load_config

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = Path(__file__).resolve().parent / "artifact_digests.json"
CONFIGS = ("case1", "case2", "case3", "fusion_study")
SUBCOMMANDS = ("simulate", "evaluate", "fusion-study", "bclb")
RUNS = 3


def _versions() -> dict[str, str]:
    return {"numpy": np.__version__, "scipy": scipy.__version__}


def _artifact_digests(config: str, sub: str, out: Path) -> dict[str, str]:
    """Run one subcommand into out; {"<config>/<sub>/<file>": sha256}."""
    runs = ["--runs", str(RUNS)] if "--runs" in cli.SUBCOMMANDS[sub].flags else []
    rc = cli.main([sub, "--config", str(ROOT / "configs" / f"{config}.json"), "--out", str(out)] + runs)
    assert rc == 0, (config, sub)
    return {
        f"{config}/{sub}/{p.name}": hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.iterdir())
    }


@pytest.mark.parametrize("sub", SUBCOMMANDS)
@pytest.mark.parametrize("config", CONFIGS)
def test_artifact_digests(config, sub, tmp_path):
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))
    if recorded["versions"] != _versions():
        pytest.skip(f"digests recorded with {recorded['versions']}, running {_versions()}")
    if sub == "bclb" and load_config(ROOT / "configs" / f"{config}.json").scenario.pdv is None:
        pytest.skip("bclb needs a synthetic PDV profile")
    got = _artifact_digests(config, sub, tmp_path / "out")
    want = {key: value for key, value in recorded["digests"].items() if key.startswith(f"{config}/{sub}/")}
    assert got == want


if __name__ == "__main__":
    import tempfile

    digests: dict[str, str] = {}
    with tempfile.TemporaryDirectory() as tmp:
        for config in CONFIGS:
            for sub in SUBCOMMANDS:
                if sub == "bclb" and load_config(ROOT / "configs" / f"{config}.json").scenario.pdv is None:
                    continue
                digests.update(_artifact_digests(config, sub, Path(tmp) / config / sub))
    doc = {"runs": RUNS, "versions": _versions(), "digests": digests}
    DIGESTS.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(digests)} digests to {DIGESTS}", file=sys.stderr)
