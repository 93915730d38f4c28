"""Reproduce the model-fusion study at desk scale.

Runs the 75-period non-stationary profile with 200 Monte-Carlo runs and
compares skew RMSE of the network-model filter, the thermal model, and the
Pareto-fused estimate, together with the two lower-bound curves. Outputs
land in demos/out/.
"""
import pathlib

import numpy as np

from tacd.config import load_config
from tacd.report import emit_plot_svg, emit_table
from tacd.runner import fusion_study

OUT = pathlib.Path(__file__).parent / "out"
CONFIG = pathlib.Path(__file__).parent.parent / "configs" / "fusion_study.json"

cfg = load_config(CONFIG).with_overrides(runs=200)
result, trajectories = fusion_study(cfg)

print("steady-state (last 10 periods, 200 runs):")
print(f"  network-model RMSE : {result.steady_rmse_single1:.3e} s/s")
print(f"  thermal-model RMSE : {result.steady_rmse_single2:.3e} s/s")
print(f"  fused RMSE         : {result.steady_rmse_fusion:.3e} s/s")
print(f"  bound reduction    : {result.steady_bclb_reduction:.1%}")

curves = result.table  # one column per curve, one row per period
emit_table(curves, OUT / "fusion_study.csv")

ks = curves["k"]
emit_plot_svg(
    [
        ("RMSE network model", ks, curves["rmse_single1"]),
        ("RMSE thermal model", ks, curves["rmse_single2"]),
        ("RMSE fused", ks, curves["rmse_fusion"]),
        ("sqrt bound, network", ks, np.sqrt(curves["bclb_single"])),
        ("sqrt bound, fused", ks, np.sqrt(curves["bclb_fusion"])),
    ],
    OUT / "fusion_study.svg",
    log_y=True,
    title="skew estimation: models, fusion, and bounds",
    y_label="RMSE (s/s)",
)
print(f"wrote {OUT / 'fusion_study.csv'} and {OUT / 'fusion_study.svg'}")

# the runtime fusion weights themselves are worth a look: the thermal phase
# dominates once the filter's own variance dwarfs the thermal error model
mean_beta = np.mean(trajectories.beta, axis=0)
print("mean fusion weight beta:", " ".join(f"{b:.6f}" for b in mean_beta[-5:]), "(last 5 periods)")
