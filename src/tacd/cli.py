"""Command-line interface.

Subcommands: simulate (trajectory CSV), evaluate (RMSE summary CSV),
fusion-study (study curves CSV), bclb (bound curves CSV), plot (CSV to SVG).
All outputs are deterministic for a given config and seed.
"""
from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

from .config import ConfigError, RunConfig, load_config
from .report import emit_plot_svg, emit_table, load_csv_columns
from .runner import (
    bclb_table,
    evaluate_rmse,
    fusion_study,
    run_case,
    skew_rmse_per_period,
    trajectory_table,
)

# Every flag an artifact subcommand can take; the flags that override a
# config field have that RunConfig.with_overrides keyword as their dest.
_FLAGS = {
    "--config": dict(required=True, help="path to the JSON run configuration"),
    "--runs": dict(type=int, help="override the Monte-Carlo run count"),
    "--seed": dict(type=int, help="override the master seed"),
    "--out": dict(dest="output_dir", help="output directory (default from config)"),
    "--estimators": dict(type=lambda s: tuple(x.strip() for x in s.split(",")),
                         help="comma-separated estimator selection"),
    "--workers": dict(type=int, help="worker process count"),
    "--plot": dict(action="store_true", help="also write an SVG next to the CSV"),
}
_OVERRIDES = ("runs", "seed", "estimators", "output_dir", "workers")

# A subcommand's result: its table, the lines it prints, and its plot series
# (label, x, y), an iterable read only with --plot.
Output = tuple[dict[str, np.ndarray], list[str], Iterable[tuple]]


def _simulate(cfg: RunConfig) -> Output:
    t = run_case(cfg)
    table = trajectory_table(cfg, t)
    k = table["k"]
    series = [
        ("true skew", k, table["theta_true"][0]),
        ("fused skew", k, table["theta_F"][0]),
        ("network skew", k, table["theta_L"][0]),
        ("thermal skew", k, table["theta_T"][0]),
    ]
    return table, [f"simulated {cfg.runs} runs x {t.horizon} periods"], series


def _evaluate(cfg: RunConfig) -> Output:
    t = run_case(cfg)
    table = evaluate_rmse(t, cfg.steady_window, cfg.estimators)
    lines = [f"{name:>12s}  skew RMSE {sk:.4e}  offset RMSE {of:.4e}" for name, sk, of in zip(*table.values())]
    k = np.arange(t.horizon)
    return table, lines, ((name, k, skew_rmse_per_period(t, name)) for name in cfg.estimators)


def _fusion_study(cfg: RunConfig) -> Output:
    r, _ = fusion_study(cfg)
    lines = [
        f"steady-state RMSE: network {r.steady_rmse_single1:.4e}, "
        f"thermal {r.steady_rmse_single2:.4e}, fused {r.steady_rmse_fusion:.4e}",
        f"steady-state bound reduction: {r.steady_bclb_reduction:.3f}",
    ]
    table = r.table
    k = table["k"]
    series = [
        ("RMSE network model", k, table["rmse_single1"]),
        ("RMSE thermal model", k, table["rmse_single2"]),
        ("RMSE fused", k, table["rmse_fusion"]),
        ("bound network", k, np.sqrt(table["bclb_single"])),
        ("bound fused", k, np.sqrt(table["bclb_fusion"])),
    ]
    return table, lines, series


def _bclb(cfg: RunConfig) -> Output:
    table = bclb_table(cfg)
    k = table["k"]
    series = [("bound network", k, table["bclb_L"]), ("bound fused", k, table["bclb_F"])]
    return table, [f"bounds over {len(k)} periods"], series


@dataclass(frozen=True)
class Subcommand:
    """One artifact: the flags its command reads, how it is built, and the
    file names and plot settings it is written under."""

    help: str
    flags: tuple[str, ...]
    build: Callable[[RunConfig], Output]
    csv: str
    svg: str
    plot: dict  # emit_plot_svg keywords besides the series and path


_RUN_FLAGS = ("--config", "--runs", "--seed", "--out", "--workers", "--plot")
SUBCOMMANDS = {
    "simulate": Subcommand(
        "run one case and write the trajectory CSV", _RUN_FLAGS + ("--estimators",), _simulate,
        "trajectory.csv", "trajectory.svg", dict(title="run 0 skew trajectories", y_label="skew (s/s)")),
    "evaluate": Subcommand(
        "run one case and write the steady-state RMSE summary", _RUN_FLAGS + ("--estimators",), _evaluate,
        "rmse_summary.csv", "rmse_skew.svg",
        dict(log_y=True, title="per-period skew RMSE", y_label="skew RMSE (s/s)")),
    "fusion-study": Subcommand(
        "run the model-fusion study (RMSE curves and bounds)", _RUN_FLAGS, _fusion_study,
        "fusion_study.csv", "fusion_study.svg",
        dict(log_y=True, title="skew estimation and bounds", y_label="RMSE / sqrt(bound) (s/s)")),
    "bclb": Subcommand(
        "compute bound curves only", ("--config", "--out", "--plot"), _bclb, "bclb.csv", "bclb.svg",
        dict(log_y=True, title="skew estimation lower bounds", y_label="bound ((s/s)^2)")),
}


def _run(sub: Subcommand, args) -> int:
    cfg = load_config(args.config).with_overrides(**{k: getattr(args, k, None) for k in _OVERRIDES})
    table, lines, series = sub.build(cfg)
    out = Path(cfg.output_dir)
    path = emit_table(table, out / sub.csv)
    print("\n".join(lines + [f"wrote {path}"]))
    if args.plot:
        print(f"wrote {emit_plot_svg(list(series), out / sub.svg, **sub.plot)}")
    return 0


def _cmd_plot(args) -> int:
    cols = load_csv_columns(args.csv)
    if args.x not in cols:
        raise SystemExit(f"column {args.x!r} not in {sorted(cols)}")
    xs = cols[args.x]
    series = []
    for name in args.y.split(","):
        name = name.strip()
        if name not in cols:
            raise SystemExit(f"column {name!r} not in {sorted(cols)}")
        series.append((name, xs, cols[name]))
    path = emit_plot_svg(series, args.out, log_y=args.log_y, title=args.title, x_label=args.x)
    print(f"wrote {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tacd", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    for name, spec in SUBCOMMANDS.items():
        p = sub.add_parser(name, help=spec.help)
        for flag in spec.flags:
            p.add_argument(flag, **_FLAGS[flag])
        p.set_defaults(fn=functools.partial(_run, spec))

    p = sub.add_parser("plot", help="render CSV columns to an SVG line chart")
    p.add_argument("csv", help="input CSV path")
    p.add_argument("--x", default="k", help="x-axis column name")
    p.add_argument("--y", required=True, help="comma-separated y column names")
    p.add_argument("--out", required=True, help="output SVG path")
    p.add_argument("--log-y", action="store_true", help="logarithmic ordinate")
    p.add_argument("--title", default=None)
    p.set_defaults(fn=_cmd_plot)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
