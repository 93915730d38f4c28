"""Explore the Fisher-information lower bounds.

Computes the per-period skew-estimation bound for the linear clock model and
for the fused model at several fixed fusion weights, on the non-stationary
mixture profile. Smaller network weight alpha pushes the fused bound further
down; alpha = 1 recovers the linear bound exactly.
"""
import pathlib

import numpy as np

from tacd.bclb import OracleNoiseTruth, bclb_trajectory
from tacd.clock import ClockDynamics
from tacd.config import load_config
from tacd.report import emit_plot_svg
from tacd.runner import bound_reduction
from tacd.scenario import pdv_params_table

OUT = pathlib.Path(__file__).parent / "out"
CONFIG = pathlib.Path(__file__).parent.parent / "configs" / "fusion_study.json"

cfg = load_config(CONFIG)
weights, stddevs = pdv_params_table(cfg.scenario.pdv, cfg.scenario.horizon)
oracle = OracleNoiseTruth(weights=weights, stddevs=stddevs)
dyn = cfg.dynamics

series = []
ks = np.arange(cfg.scenario.horizon)
for alpha in (1.0, 0.7, 0.5, 0.3):
    bound_lin, bound_fus = bclb_trajectory(oracle, dyn, alpha, cfg.netcomm_init.p0_diag[0])
    if alpha == 1.0:
        series.append(("linear model", ks, bound_lin))
        assert np.array_equal(bound_fus, bound_lin)
        print(f"alpha=1.0: fused bound coincides with the linear bound "
              f"(steady value {bound_lin[-1]:.3e})")
    else:
        series.append((f"fused, alpha={alpha}", ks, bound_fus))
        reduction = bound_reduction(bound_lin, bound_fus, cfg.steady_window)
        print(f"alpha={alpha}: steady bound reduction {reduction:.1%}")

emit_plot_svg(
    series,
    OUT / "bounds.svg",
    log_y=True,
    title="skew-estimation lower bounds",
    y_label="bound ((s/s)^2)",
)
print(f"wrote {OUT / 'bounds.svg'}")
