"""Walk through one synchronization run.

Generates a single seeded scenario (non-stationary mixture delay noise plus
a temperature trajectory), then steps the adaptive Gaussian-sum filter, the
fixed-noise Kalman baseline, and plain gPTP arithmetic over the same
exchanges. Writes skew-tracking curves to demos/out/filtering.svg.
"""
import pathlib

import numpy as np

from tacd import (
    ClockDynamics,
    ExchangeBatch,
    GaussianBelief,
    GsfVbFilter,
    KalmanBaseline,
    LinkConfig,
    ScenarioConfig,
    TempSkewModel,
    VbSettings,
    build_measurement,
    build_state_space,
    generate_scenario,
    gptp_skew,
)
from tacd.netcomm import isotropic_mixture_model, nominal_noise_cov
from tacd.scenario import PdvProfile, ThermalProfile, ThermalSegment, TruthOptions
from tacd.report import emit_plot_svg

OUT = pathlib.Path(__file__).parent / "out"

M = (1.0 - 2e-6) ** (1.0 / 30.0)
HORIZON = 120

dyn = ClockDynamics(m=M, sigma_u_sq=3.5e-12, tau=1.0)
model = TempSkewModel(kappa=4e-8, T0=25.0, theta0=0.0, sigma_T_sq=0.1)

# a loaded link whose jitter grows mid-run, plus a slow thermal ramp
scenario = ScenarioConfig(
    tau=1.0,
    horizon=HORIZON,
    link=LinkConfig(d1=5e-6, d2=1e-6),
    pdv=PdvProfile(
        initial_stddevs=(3e-6, 1.5e-6),
        initial_weights=(0.6, 0.4),
        rate_schedule=(),
    ),
    thermal=ThermalProfile(
        segments=(
            ThermalSegment(0, 40, "constant", {"value": 28.0}),
            ThermalSegment(41, 90, "first-order", {"slope": 0.25, "intercept": 17.75}),
            ThermalSegment(91, HORIZON - 1, "constant", {"value": 40.5}),
        ),
        cooling_constant=10.0,
        initial_oscillator_temp=28.0,
    ),
    temp_model=model,
    truth=TruthOptions(initial_offset=1e-6, process_noise_sq=2.5e-17),
    gm_coefficient=M,
)

rng = np.random.default_rng(7)
data = generate_scenario(scenario, rng)
print(f"generated {data.horizon} exchanges; "
      f"true skew spans [{data.skew_true.min():.2e}, {data.skew_true.max():.2e}] s/s")

ss = build_state_space(dyn)
belief0 = GaussianBelief(mean=np.array([3e-7, 3.5e-6]), cov=np.diag([5e-6, 5e-6]))
adaptive = GsfVbFilter(
    ss,
    isotropic_mixture_model([1.0, 1.0], [4.0, 4.0], [10.0, 20.0], unit_scale=1e-6),
    belief0,
    vb=VbSettings(),
)
baseline = KalmanBaseline(ss, nominal_noise_cov(3e-6), belief0)

# every period's exchange against the one before it
ex = ExchangeBatch.from_stamps(data.stamps)
cur, prev = ex.periods(slice(1, None)), ex.periods(slice(None, -1))
skew_adaptive = [belief0.mean[0]]
skew_baseline = [belief0.mean[0]]
for z in build_measurement(cur, prev, data.link.d):
    skew_adaptive.append(adaptive.step(z).skew)
    skew_baseline.append(baseline.step(z).skew)
skew_gptp = np.append(np.nan, gptp_skew(cur, prev, scenario.tau))

for name, est in [("adaptive", skew_adaptive), ("kalman", skew_baseline), ("gptp", skew_gptp)]:
    err = np.asarray(est[60:]) - data.skew_true[60:]
    print(f"{name:>9s} steady skew RMSE: {np.sqrt(np.nanmean(err**2)):.3e} s/s")

ks = np.arange(data.horizon)
emit_plot_svg(
    [
        ("true skew", ks, data.skew_true),
        ("adaptive filter", ks, np.asarray(skew_adaptive)),
        ("fixed-noise kalman", ks, np.asarray(skew_baseline)),
        ("gptp", ks, np.asarray(skew_gptp)),
    ],
    OUT / "filtering.svg",
    title="skew tracking on one run",
    y_label="skew (s/s)",
)
print(f"wrote {OUT / 'filtering.svg'}")
