"""Command-line interface.

Subcommands: simulate (trajectory CSV), evaluate (RMSE summary CSV),
fusion-study (study curves CSV), bclb (bound curves CSV), plot (CSV to SVG).
All outputs are deterministic for a given config and seed. Each command
steps its Monte-Carlo runs in-process as one batch.
"""
from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

from .config import RUN_KEYS, ConfigError, RunConfig, load_config
from .report import emit_plot_svg, emit_table, load_csv_columns
from .runner import (
    bclb_table,
    bound_reduction,
    evaluate_rmse,
    fusion_study,
    run_case,
    skew_rmse_per_period,
    trajectory_table,
)

# Every flag an artifact subcommand can take; the flags that override a
# config run key (config.RUN_KEYS) have that key as their dest. --workers
# has a dest outside RUN_KEYS and is read by nothing, since every command
# runs in-process; it is still accepted because bench/run.py passes it on
# every workload and test_bench_contract::test_workload_command_runs asserts
# that it does.
_FLAGS = {
    "--config": dict(required=True, help="path to the JSON run configuration"),
    "--runs": dict(type=int, help="override the Monte-Carlo run count"),
    "--seed": dict(type=int, dest="master_seed", help="override the master seed"),
    "--out": dict(dest="output_dir", help="output directory (default from config)"),
    "--estimators": dict(type=lambda s: tuple(x.strip() for x in s.split(",")),
                         help="comma-separated estimator selection"),
    "--workers": dict(type=int, metavar="N", dest="ignored_workers",
                      help="accepted for compatibility; has no effect (every run is in-process)"),
    "--plot": dict(action="store_true", help="also write an SVG next to the CSV"),
}

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
    table, t = fusion_study(cfg)
    network, thermal, fused = evaluate_rmse(t, cfg.steady_window, ("linear-only", "thermal-only", "tacd"))["skew_rmse"]
    reduction = bound_reduction(table["bclb_single"], table["bclb_fusion"], cfg.steady_window)
    lines = [
        f"steady-state RMSE: network {network:.4e}, thermal {thermal:.4e}, fused {fused:.4e}",
        f"steady-state bound reduction: {reduction:.3f}",
    ]
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
    cfg = load_config(args.config).with_overrides(**{k: getattr(args, k, None) for k in RUN_KEYS})
    table, lines, series = sub.build(cfg)
    out = Path(cfg.output_dir)
    # the SVG is drawn first: a series with no plottable point fails the
    # command before either file is written
    svg = [emit_plot_svg(list(series), out / sub.svg, **sub.plot)] if args.plot else []
    path = emit_table(table, out / sub.csv)
    print("\n".join(lines + [f"wrote {p}" for p in [path, *svg]]))
    return 0


def _cmd_plot(args) -> int:
    cols = load_csv_columns(args.csv)
    names = [name.strip() for name in args.y.split(",")]
    for name in [args.x, *names]:
        if name not in cols:
            raise ValueError(f"{args.csv}: column {name!r} not in {sorted(cols)}")
    series = [(name, cols[args.x], cols[name]) for name in names]
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
