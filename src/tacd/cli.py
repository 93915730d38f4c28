"""Command-line interface.

Subcommands: simulate (trajectory CSV), evaluate (RMSE summary CSV),
fusion-study (study curves CSV), bclb (bound curves CSV), plot (CSV to SVG).
All outputs are deterministic for a given config and seed.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .config import ConfigError, load_config
from .report import (
    BCLB_COLUMNS,
    FUSION_STUDY_COLUMNS,
    SUMMARY_COLUMNS,
    TRAJECTORY_COLUMNS,
    emit_csv,
    emit_plot_svg,
    load_csv_columns,
)
from .runner import (
    bclb_rows,
    evaluate_rmse,
    fusion_study,
    fusion_study_rows,
    run_case,
    skew_rmse_per_period,
    trajectory_rows,
)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", required=True, help="path to the JSON run configuration")
    parser.add_argument("--runs", type=int, default=None, help="override the Monte-Carlo run count")
    parser.add_argument("--seed", type=int, default=None, help="override the master seed")
    parser.add_argument("--out", default=None, help="output directory (default from config)")
    parser.add_argument("--estimators", default=None, help="comma-separated estimator selection")
    parser.add_argument("--workers", type=int, default=None, help="worker process count")
    parser.add_argument("--plot", action="store_true", help="also write an SVG next to the CSV")


def _load(args) -> "RunConfig":
    cfg = load_config(args.config)
    estimators = tuple(s.strip() for s in args.estimators.split(",")) if args.estimators else None
    return cfg.with_overrides(
        runs=args.runs,
        seed=args.seed,
        estimators=estimators,
        output_dir=args.out,
        workers=args.workers,
    )


def _out_path(cfg, name: str) -> Path:
    return Path(cfg.output_dir) / name


def _cmd_simulate(args) -> int:
    cfg = _load(args)
    trajs = run_case(cfg)
    path = emit_csv(trajectory_rows(cfg, trajs), TRAJECTORY_COLUMNS, _out_path(cfg, "trajectory.csv"))
    print(f"wrote {path} ({cfg.runs} runs x {cfg.scenario.horizon} periods)")
    if args.plot:
        ks = np.arange(trajs.horizon)
        svg = emit_plot_svg(
            [
                ("true skew", ks, trajs.theta_true[0]),
                ("fused skew", ks, trajs.theta_F[0]),
                ("network skew", ks, trajs.theta_L[0]),
                ("thermal skew", ks, trajs.theta_T[0]),
            ],
            _out_path(cfg, "trajectory.svg"),
            title="run 0 skew trajectories",
            y_label="skew (s/s)",
        )
        print(f"wrote {svg}")
    return 0


def _cmd_evaluate(args) -> int:
    cfg = _load(args)
    trajs = run_case(cfg)
    summary = evaluate_rmse(trajs, cfg.steady_window, cfg.estimators)
    path = emit_csv(summary.rows, SUMMARY_COLUMNS, _out_path(cfg, "rmse_summary.csv"))
    for name, sk, of in summary.rows:
        print(f"{name:>12s}  skew RMSE {sk:.4e}  offset RMSE {of:.4e}")
    print(f"wrote {path}")
    if args.plot:
        ks = np.arange(trajs.horizon)
        svg = emit_plot_svg(
            [(name, ks, skew_rmse_per_period(trajs, name)) for name in cfg.estimators],
            _out_path(cfg, "rmse_skew.svg"),
            log_y=True,
            title="per-period skew RMSE",
            y_label="skew RMSE (s/s)",
        )
        print(f"wrote {svg}")
    return 0


def _cmd_fusion_study(args) -> int:
    cfg = _load(args)
    result, _ = fusion_study(cfg)
    path = emit_csv(fusion_study_rows(result), FUSION_STUDY_COLUMNS, _out_path(cfg, "fusion_study.csv"))
    print(
        f"steady-state RMSE: network {result.steady_rmse_single1:.4e}, "
        f"thermal {result.steady_rmse_single2:.4e}, fused {result.steady_rmse_fusion:.4e}"
    )
    print(f"steady-state bound reduction: {result.steady_bclb_reduction:.3f}")
    print(f"wrote {path}")
    if args.plot:
        ks = np.arange(result.horizon)
        svg = emit_plot_svg(
            [
                ("RMSE network model", ks, result.rmse_single1),
                ("RMSE thermal model", ks, result.rmse_single2),
                ("RMSE fused", ks, result.rmse_fusion),
                ("bound network", ks, np.sqrt(result.bclb_single)),
                ("bound fused", ks, np.sqrt(result.bclb_fusion)),
            ],
            _out_path(cfg, "fusion_study.svg"),
            log_y=True,
            title="skew estimation and bounds",
            y_label="RMSE / sqrt(bound) (s/s)",
        )
        print(f"wrote {svg}")
    return 0


def _cmd_bclb(args) -> int:
    cfg = _load(args)
    rows = bclb_rows(cfg)
    path = emit_csv(rows, BCLB_COLUMNS, _out_path(cfg, "bclb.csv"))
    print(f"wrote {path} ({len(rows)} periods)")
    if args.plot:
        ks = np.array([r[0] for r in rows], dtype=float)
        svg = emit_plot_svg(
            [
                ("bound network", ks, np.array([r[1] for r in rows])),
                ("bound fused", ks, np.array([r[2] for r in rows])),
            ],
            _out_path(cfg, "bclb.svg"),
            log_y=True,
            title="skew estimation lower bounds",
            y_label="bound ((s/s)^2)",
        )
        print(f"wrote {svg}")
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

    for name, fn, doc in [
        ("simulate", _cmd_simulate, "run one case and write the trajectory CSV"),
        ("evaluate", _cmd_evaluate, "run one case and write the steady-state RMSE summary"),
        ("fusion-study", _cmd_fusion_study, "run the model-fusion study (RMSE curves and bounds)"),
        ("bclb", _cmd_bclb, "compute bound curves only"),
    ]:
        p = sub.add_parser(name, help=doc)
        _add_common(p)
        p.set_defaults(fn=fn)

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
