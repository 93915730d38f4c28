"""Deterministic CSV and SVG artifact emission.

Floats are written with repr (shortest round-trip form), so emitted files
are byte-identical across repeated runs and parse back to full precision.
No cell of a tacd table needs CSV quoting: a float's repr and an int's str
never do, and emit_table refuses a str cell or column name that would.
So each row is written as its cells joined with ",", and the bytes are
those csv.writer writes ("\n" line ends). A table's cell text is made
once per element of each column's own shape.
The SVG writer is hand-rolled to keep output bytes deterministic.
"""
from __future__ import annotations

import csv
from itertools import chain, islice
from pathlib import Path
from typing import Iterable, Optional, Sequence

import numpy as np

# Rows made into text and written at a time: a whole number of leading-axis
# slices, so a large table is never held as text all at once.
_BLOCK_ROWS = 256


def emit_table(table: dict[str, np.ndarray], path) -> Path:
    """Write a table of named columns as CSV; returns the written path.

    The columns broadcast to one shape of at least one axis and the header
    is list(table). Rows follow the elements of that shape in C order.
    Columns hold floats (written as repr), ints or str. A str cell or a
    column name that csv would quote (one holding a comma, a double quote,
    CR or LF, or the empty cell of a one-column row) raises ValueError
    naming the column; each str column's distinct cells are checked once,
    before any file is opened. Each column's cell text is made at its own
    shape, a zero-stride axis counting as broadcast, and then broadcast to
    the table's: an (h,) column costs h conversions however many rows
    repeat it. A column that varies along the leading axis is converted one
    block of leading-axis slices at a time; the cells of one constant along
    it are made once per block shape.
    """
    arrays = [np.asarray(c) for c in table.values()]
    shape = np.broadcast_shapes(*(a.shape for a in arrays))
    if not shape:
        raise ValueError("a table needs at least one axis")
    columns = [_unbroadcast(name, a, len(shape)) for name, a in zip(table, arrays)]
    # csv.writer quotes a comma, a double quote, LF and the lone empty cell;
    # a bare CR, which csv.reader reads as a line end, is refused as well
    for name, column in zip(table, columns):
        cells = set(column.ravel().tolist()) if column.dtype.kind == "U" else set()
        for cell in cells | {name}:
            if not set(cell).isdisjoint(',"\r\n') or (len(table) == 1 and not cell):
                raise ValueError(f"CSV column {name!r}: {cell!r} would need quoting, which tacd tables do not use")
    step = max(1, _BLOCK_ROWS // max(1, int(np.prod(shape[1:]))))
    # each block shape's cells of the columns constant along the leading axis
    # (None for the others); a table has at most two block shapes
    fixed: dict[tuple, list] = {}

    def rows():
        for i in range(0, shape[0], step):
            block = (min(step, shape[0] - i),) + shape[1:]
            if block not in fixed:
                fixed[block] = [_cells(c, block) if len(c) == 1 else None for c in columns]
            yield from zip(*(_cells(c[i : i + step], block) if cells is None else cells
                             for c, cells in zip(columns, fixed[block])))

    return emit_csv(rows(), list(table), path)


def _unbroadcast(name: str, column: np.ndarray, ndim: int) -> np.ndarray:
    """The column with ndim axes (leading ones added) and each zero-stride
    (broadcast) axis cut to length 1. Raises TypeError unless it holds
    floats, ints or str."""
    if not (column.dtype.kind in "iuU" or column.dtype.kind == "f" and column.dtype.itemsize <= 8):
        raise TypeError(f"CSV column {name!r} holds {column.dtype} values, expected str, int or float")
    column = column.reshape((1,) * (ndim - column.ndim) + column.shape)
    return column[tuple(slice(0, 1) if n > 1 and s == 0 else slice(None)
                        for n, s in zip(column.shape, column.strides))]


def _cells(column: np.ndarray, shape: tuple) -> list[str]:
    """Each element's CSV cell text, repr of a float (what csv.writer
    writes), str of an int, a str as it is, made at the column's shape and
    listed broadcast to shape in C order."""
    values = column.ravel().tolist()
    if column.dtype.kind == "f":
        values = list(map(repr, values))
    elif column.dtype.kind != "U":
        values = list(map(str, values))
    if column.shape == shape:
        return values
    return np.broadcast_to(np.array(values, dtype=object).reshape(column.shape), shape).ravel().tolist()


def emit_csv(rows: Iterable[Sequence[str]], columns: Sequence[str], path) -> Path:
    """Write rows of str cells under a fixed header; returns the written path.

    Each row is written as its cells joined with "," and the header as the
    column names joined, so no cell or name may need CSV quoting (emit_table
    checks that). The first row is checked: a cell that is not a str, such
    as a float or a numpy scalar, raises TypeError naming its column, and a
    row wider or narrower than the header ValueError, instead of writing a
    file load_csv_columns refuses. Rows are written a block at a time.
    """
    out = Path(path)
    rows = iter(rows)
    first = next(rows, None)
    if first is not None:
        if len(first) != len(columns):
            raise ValueError(f"CSV row has {len(first)} cells, the header {len(columns)}")
        for name, value in zip(columns, first):
            if type(value) is not str:
                raise TypeError(f"CSV column {name!r} holds a {type(value).__name__}, expected str")
    out.parent.mkdir(parents=True, exist_ok=True)
    try:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join(columns) + "\n")
            if first is not None:
                rows = chain((first,), rows)
                while chunk := list(islice(rows, _BLOCK_ROWS)):
                    fh.write("\n".join(map(",".join, chunk)) + "\n")
    except OSError as exc:
        raise OSError(f"failed writing CSV to {out}: {exc}") from exc
    return out


def load_csv_columns(path) -> dict[str, np.ndarray]:
    """Read a numeric CSV back as named float columns ('estimator' stays str).

    Raises ValueError for a file that is not UTF-8 text, has no header or
    has a row whose cell count differs from the header's.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        try:
            reader = csv.reader(fh.readlines())
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: {exc}") from None
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
) -> Path:
    """Render labeled line series into a standalone SVG file.

    Non-finite points break the polyline; a log ordinate drops non-positive
    points. At least one series with at least one finite point is required.
    """
    if not series:
        raise ValueError("at least one series is required")
    width, height = 720, 460
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
