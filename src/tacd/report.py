"""Deterministic CSV and SVG artifact emission.

Floats are written with repr (shortest round-trip form), so emitted files
are byte-identical across repeated runs and parse back to full precision.
The SVG writer is hand-rolled to keep output bytes deterministic.
"""
from __future__ import annotations

import csv
from pathlib import Path
from typing import Iterable, Optional, Sequence

import numpy as np


def emit_table(table: dict[str, np.ndarray], path) -> Path:
    """Write a table of named columns as CSV; returns the written path.

    The columns broadcast to one shape and the header is list(table). Rows
    follow the elements of that shape in C order, and one slice of its
    leading axis at a time is turned into plain cells, so a large table is
    never held as Python objects all at once.
    """
    columns = np.broadcast_arrays(*table.values())

    def rows():
        for i in range(len(columns[0])):
            yield from zip(*(c[i : i + 1].reshape(-1).tolist() for c in columns))

    return emit_csv(rows(), list(table), path)


def emit_csv(rows: Iterable[Sequence], columns: Sequence[str], path) -> Path:
    """Write rows under a fixed header; returns the written path.

    Cells must be plain str, int or float (the csv module writes a float's
    repr); the first row is checked, so a producer that hands over numpy
    scalars, or rows wider or narrower than the header, fails instead of
    writing a file load_csv_columns refuses.
    """
    out = Path(path)
    rows = iter(rows)
    first = next(rows, None)
    if first is not None:
        if len(first) != len(columns):
            raise ValueError(f"CSV row has {len(first)} cells, the header {len(columns)}")
        for name, value in zip(columns, first):
            if type(value) not in (str, int, float):
                raise TypeError(f"CSV column {name!r} holds a {type(value).__name__}, expected str, int or float")
    out.parent.mkdir(parents=True, exist_ok=True)
    try:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(columns)
            if first is not None:
                writer.writerow(first)
                writer.writerows(rows)
    except OSError as exc:
        raise OSError(f"failed writing CSV to {out}: {exc}") from exc
    return out


def load_csv_columns(path) -> dict[str, np.ndarray]:
    """Read a numeric CSV back as named float columns ('estimator' stays str).

    Raises ValueError for a file without a header or a row whose cell count
    differs from the header's.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty CSV, no header")
        cols: dict[str, list] = {name: [] for name in header}
        for row in reader:
            if len(row) != len(header):
                raise ValueError(f"{path}: line {reader.line_num} has {len(row)} cells, the header {len(header)}")
            for name, cell in zip(header, row):
                cols[name].append(cell)
    out = {}
    for name, cells in cols.items():
        try:
            out[name] = np.array([float(c) for c in cells])
        except ValueError:
            out[name] = np.array(cells)
    return out


_PALETTE = ["#1f6fb2", "#d64550", "#3a9a5c", "#8456b8", "#c78a1f", "#50a7a0", "#777777"]


def emit_plot_svg(
    series: Sequence[tuple[str, Sequence[float], Sequence[float]]],
    path,
    log_y: bool = False,
    title: Optional[str] = None,
    x_label: str = "k",
    y_label: str = "",
    width: int = 720,
    height: int = 460,
) -> Path:
    """Render labeled line series into a standalone SVG file.

    Non-finite points break the polyline; a log ordinate drops non-positive
    points. At least one series with at least one finite point is required.
    """
    if not series:
        raise ValueError("at least one series is required")
    margin_l, margin_r, margin_t, margin_b = 70, 150, 34, 48
    plot_w = width - margin_l - margin_r
    plot_h = height - margin_t - margin_b

    def usable(xs, ys):
        x = np.asarray(xs, dtype=float)
        y = np.asarray(ys, dtype=float)
        ok = np.isfinite(x) & np.isfinite(y)
        if log_y:
            ok &= y > 0.0
        return x, y, ok

    all_x, all_y = [], []
    for _, xs, ys in series:
        x, y, ok = usable(xs, ys)
        all_x.append(x[ok])
        all_y.append(y[ok])
    all_x = np.concatenate(all_x) if all_x else np.array([])
    all_y = np.concatenate(all_y) if all_y else np.array([])
    if all_x.size == 0:
        raise ValueError("series contain no plottable points")

    x_lo, x_hi = float(all_x.min()), float(all_x.max())
    if log_y:
        y_lo, y_hi = float(np.log10(all_y.min())), float(np.log10(all_y.max()))
    else:
        y_lo, y_hi = float(all_y.min()), float(all_y.max())
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + (abs(y_lo) if y_lo != 0.0 else 1.0)

    def sx(x):
        return margin_l + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y):
        v = np.log10(y) if log_y else y
        return margin_t + (1.0 - (v - y_lo) / (y_hi - y_lo)) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        f'<rect x="{margin_l}" y="{margin_t}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#333333" stroke-width="1"/>',
    ]
    if title:
        parts.append(
            f'<text x="{width / 2:.1f}" y="20" text-anchor="middle" '
            f'font-family="sans-serif" font-size="14">{_esc(title)}</text>'
        )

    for i in range(5):
        frac = i / 4.0
        xv = x_lo + frac * (x_hi - x_lo)
        yv = y_lo + frac * (y_hi - y_lo)
        px = sx(xv)
        py = margin_t + (1.0 - frac) * plot_h
        label = f"1e{yv:.1f}" if log_y else f"{yv:.3g}"
        parts.append(
            f'<line x1="{px:.1f}" y1="{margin_t + plot_h}" x2="{px:.1f}" '
            f'y2="{margin_t + plot_h + 4}" stroke="#333333"/>'
            f'<text x="{px:.1f}" y="{margin_t + plot_h + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{xv:.3g}</text>'
        )
        parts.append(
            f'<line x1="{margin_l - 4}" y1="{py:.1f}" x2="{margin_l}" y2="{py:.1f}" stroke="#333333"/>'
            f'<text x="{margin_l - 8}" y="{py + 4:.1f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{label}</text>'
        )
    parts.append(
        f'<text x="{margin_l + plot_w / 2:.1f}" y="{height - 10}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">{_esc(x_label)}</text>'
    )
    if y_label:
        ylab = _esc(y_label + (" (log)" if log_y else ""))
        parts.append(
            f'<text x="16" y="{margin_t + plot_h / 2:.1f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12" '
            f'transform="rotate(-90 16 {margin_t + plot_h / 2:.1f})">{ylab}</text>'
        )

    for idx, (label, xs, ys) in enumerate(series):
        color = _PALETTE[idx % len(_PALETTE)]
        x, y, ok = usable(xs, ys)
        segment: list[str] = []
        for xi, yi, oki in zip(x, y, ok):
            if oki:
                segment.append(f"{sx(xi):.2f},{sy(yi):.2f}")
            elif segment:
                parts.append(_polyline(segment, color))
                segment = []
        if segment:
            parts.append(_polyline(segment, color))
        ly = margin_t + 16 + idx * 18
        lx = margin_l + plot_w + 12
        parts.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="2"/>'
            f'<text x="{lx + 28}" y="{ly}" font-family="sans-serif" font-size="11">{_esc(label)}</text>'
        )

    parts.append("</svg>")
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text("\n".join(parts) + "\n", encoding="utf-8")
    return out


def _polyline(points: list[str], color: str) -> str:
    if len(points) == 1:
        x, y = points[0].split(",")
        return f'<circle cx="{x}" cy="{y}" r="2" fill="{color}"/>'
    return f'<polyline points="{" ".join(points)}" fill="none" stroke="{color}" stroke-width="1.5"/>'


def _esc(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
