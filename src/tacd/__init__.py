"""Clock-synchronization estimation library and Monte-Carlo study harness.

Submodules: clock (clock dynamics), scenario (ground-truth generation),
netcomm (Gaussian-sum / variational-Bayes filtering and baselines),
thermal (temperature self-correction), fusion (Pareto-optimal weighting),
bclb (Fisher-information bound recursions), and the run harness
(config, runner, report, cli).

Every stage runs on arrays. generate_scenario draws a batch of runs, one
RNG stream each, as one record of (R, h) arrays; its exchanges are an
ExchangeBatch, the one exchange type, whose fields have any leading shape:
() for one exchange, (h,) for one run, (R, h) for a batch.
The filters step all runs of a batch per period and bclb_trajectory runs
the bound recursion over the horizon, once per case (runner.case_bounds).
The fusion stage is four functions of plain arrays: thermal_variance gives
the thermal phase's error variance, pareto_beta the thermal weight beta
from it and the network phase's variance, fuse_skew fuses the two phase
estimates at beta, and fusion_variance gives the fused error's variance.
The per-period scalar forms of these stages live only in tests/oracles.py,
as the reference the array forms are checked against.
"""

__version__ = "0.1.0"

from .clock import ClockDynamics, StateSpace, build_state_space
from .thermal import (
    TempSkewModel,
    skew_from_temperature,
    thermal_bias,
    thermal_second_moment,
)
from .scenario import (
    EmpiricalDelayTable,
    ExchangeBatch,
    LinkConfig,
    PdvProfile,
    RateSegment,
    ScenarioConfig,
    ThermalProfile,
    ThermalSegment,
    TruthOptions,
    generate_scenario,
    load_delay_csv,
)
from .netcomm import (
    GaussianBelief,
    GsfVbFilter,
    KalmanBaseline,
    MixtureNoiseModel,
    VbSettings,
    build_measurement,
    gsf_predict,
    gsf_update,
    isotropic_mixture_model,
    nominal_noise_cov,
    vb_refine,
)
from .fusion import fuse_skew, fusion_variance, pareto_beta, thermal_variance
from .bclb import OracleNoiseTruth, bclb_trajectory
