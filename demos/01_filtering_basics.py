"""Walk through one synchronization run.

Generates a single seeded scenario (non-stationary mixture delay noise plus
a temperature trajectory), then steps the adaptive Gaussian-sum filter, the
fixed-noise Kalman baseline, and plain gPTP arithmetic over the same
exchanges. Writes skew-tracking curves to demos/out/filtering.svg.
"""
import pathlib

import numpy as np

from tacd.clock import ClockDynamics, build_state_space
from tacd.netcomm import (
    GaussianBelief,
    GsfVbFilter,
    KalmanBaseline,
    VbSettings,
    build_measurement,
    isotropic_mixture_model,
    nominal_noise_cov,
)
from tacd.report import emit_plot_svg
from tacd.scenario import (
    LinkConfig,
    PdvProfile,
    ScenarioConfig,
    ThermalProfile,
    ThermalSegment,
    TruthOptions,
    generate_scenario,
)
from tacd.thermal import TempSkewModel

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

# a batch of one run; row 0 of each array is that run
data = generate_scenario(scenario, [np.random.default_rng(7)])
skew_true = data.skew_true[0]
print(f"generated {data.horizon} exchanges; "
      f"true skew spans [{skew_true.min():.2e}, {skew_true.max():.2e}] s/s")

ss = build_state_space(dyn)
belief0 = GaussianBelief(mean=np.array([3e-7, 3.5e-6]), cov=np.diag([5e-6, 5e-6]))
adaptive = GsfVbFilter(
    ss,
    isotropic_mixture_model([1.0, 1.0], [4.0, 4.0], [1e-11, 2e-11]),
    belief0,
    vb=VbSettings(),
)
baseline = KalmanBaseline(ss, nominal_noise_cov(3e-6), belief0)

# one measurement per period; its skew entry pairs the exchange with the one
# before it, so the filters start stepping at period 1
z = build_measurement(data.exchanges, data.d)[0]
skew_adaptive = [belief0.mean[0]]
skew_baseline = [belief0.mean[0]]
for zk in z[1:]:
    skew_adaptive.append(adaptive.step(zk).belief.mean[0])
    skew_baseline.append(baseline.step(zk).mean[0])
skew_gptp = z[:, 0] / dyn.tau  # NaN at period 0

for name, est in [("adaptive", skew_adaptive), ("kalman", skew_baseline), ("gptp", skew_gptp)]:
    err = np.asarray(est[60:]) - skew_true[60:]
    print(f"{name:>9s} steady skew RMSE: {np.sqrt(np.nanmean(err**2)):.3e} s/s")

ks = np.arange(data.horizon)
emit_plot_svg(
    [
        ("true skew", ks, skew_true),
        ("adaptive filter", ks, np.asarray(skew_adaptive)),
        ("fixed-noise kalman", ks, np.asarray(skew_baseline)),
        ("gptp", ks, np.asarray(skew_gptp)),
    ],
    OUT / "filtering.svg",
    title="skew tracking on one run",
    y_label="skew (s/s)",
)
print(f"wrote {OUT / 'filtering.svg'}")
