"""Run the three comparative cases at desk scale and tabulate RMSEs.

Case 1 varies the network (a mid-run jitter surge at fixed temperature),
case 2 varies the environment (a -10..40 degC excursion on a quiet network),
case 3 combines both. Each case runs 200 paired Monte-Carlo repetitions.
"""
import pathlib

from tacd.config import load_config
from tacd.report import emit_table
from tacd.runner import evaluate_rmse, run_case

OUT = pathlib.Path(__file__).parent / "out"
CONFIGS = pathlib.Path(__file__).parent.parent / "configs"

for case in ("case1", "case2", "case3"):
    cfg = load_config(CONFIGS / f"{case}.json").with_overrides(runs=200)
    trajectories = run_case(cfg)
    summary = evaluate_rmse(trajectories, cfg.steady_window, cfg.estimators)
    emit_table(summary, OUT / f"{case}_rmse.csv")
    print(f"\n{case} (steady-state RMSE over the last {cfg.steady_window} periods):")
    print(f"  {'estimator':>12s}  {'skew (s/s)':>12s}  {'offset (s)':>12s}")
    for name, skew, offset in zip(*summary.values()):
        off = f"{offset:.3e}" if offset == offset else "-"
        print(f"  {name:>12s}  {skew:12.3e}  {off:>12s}")

print(f"\nwrote per-case summaries under {OUT}/")
