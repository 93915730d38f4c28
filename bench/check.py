"""Correctness checks on the CSV artifacts a benchmark command writes.

Two checks, both in pure Python so they share no code with the program:

* every seed: the artifact parses, has the expected columns and row count,
  and the columns that must be finite are finite;
* seeds with a recorded reference (bench/reference.json): a summary of
  every recorded column matches the reference within RTOL.

The summary of a numeric column is its finite count, its root mean square
and the means of BLOCKS contiguous row blocks (each row its own block when
there are fewer rows). A difference is allowed up to RTOL times the
column's reference RMS. RTOL admits rounding-level differences: closed-form
2x2 inverses and log-determinants in place of np.linalg.solve/slogdet, or
the simple covariance update in place of the Joseph form, move the
summaries by at most 1.3e-15 of the RMS on every workload. It rejects a
change to the estimator's math: raising MIN_IW_DOF from 4 to 4.00001 moves
them by 2.4e-6 (evaluate-case3) and 3.1e-6 (fusion-study-w2).
"""
from __future__ import annotations

import csv
import math

BLOCKS = 8
RTOL = 1e-9


def read_csv(path) -> tuple[list[str], dict[str, list]]:
    """Header and columns; a column is floats unless a cell does not parse."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        cells: list[list[str]] = [[] for _ in header]
        for row in reader:
            if len(row) != len(header):
                raise ValueError(f"{path}: row of {len(row)} cells under a {len(header)}-column header")
            for col, cell in zip(cells, row):
                col.append(cell)
    columns: dict[str, list] = {}
    for name, col in zip(header, cells):
        try:
            columns[name] = [float(c) for c in col]
        except ValueError:
            columns[name] = col
    return header, columns


def summarize(path) -> dict:
    header, columns = read_csv(path)
    rows = len(columns[header[0]]) if header else 0
    out: dict = {"rows": rows, "columns": {}}
    for name, col in columns.items():
        if col and isinstance(col[0], str):
            out["columns"][name] = {"values": col}
            continue
        finite = [v for v in col if math.isfinite(v)]
        n_blocks = min(BLOCKS, rows)
        blocks = []
        for b in range(n_blocks):
            part = [v for v in col[b * rows // n_blocks:(b + 1) * rows // n_blocks] if math.isfinite(v)]
            blocks.append(math.fsum(part) / len(part) if part else None)
        out["columns"][name] = {
            "finite": len(finite),
            "rms": math.sqrt(math.fsum(v * v for v in finite) / len(finite)) if finite else None,
            "blocks": blocks,
        }
    return out


def shape_problems(summary: dict, rows: int, required: list[str], finite: list[str]) -> list[str]:
    """Seed-independent checks: columns present, row count, finite columns."""
    problems = []
    cols = summary["columns"]
    missing = [c for c in required if c not in cols]
    if missing:
        problems.append(f"missing columns {missing}")
    if summary["rows"] != rows:
        problems.append(f"{summary['rows']} rows, expected {rows}")
    for name in finite:
        col = cols.get(name, {})
        if col.get("finite") != summary["rows"]:
            problems.append(f"column {name}: {col.get('finite')} of {summary['rows']} values finite")
    return problems


def reference_problems(summary: dict, ref: dict, rtol: float = RTOL) -> list[str]:
    """Differences from a recorded summary beyond rtol (relative to column RMS)."""
    problems = []
    if summary["rows"] != ref["rows"]:
        return [f"{summary['rows']} rows, reference has {ref['rows']}"]
    for name, want in ref["columns"].items():
        got = summary["columns"].get(name)
        if got is None:
            problems.append(f"column {name} missing")
            continue
        if "values" in want:
            if got.get("values") != want["values"]:
                problems.append(f"column {name}: {got.get('values')} != {want['values']}")
            continue
        if got.get("finite") != want["finite"]:
            problems.append(f"column {name}: {got.get('finite')} finite values, reference {want['finite']}")
            continue
        if want["rms"] is None:
            continue
        tol = rtol * want["rms"]
        pairs = [("rms", got["rms"], want["rms"])]
        pairs += [(f"block {i}", g, w) for i, (g, w) in enumerate(zip(got["blocks"], want["blocks"]))]
        for label, g, w in pairs:
            if (g is None) != (w is None) or (w is not None and not abs(g - w) <= tol):
                problems.append(f"column {name} {label}: {g!r} vs reference {w!r} (tolerance {tol:.3g})")
    return problems
