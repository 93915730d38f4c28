"""Clock-synchronization estimation library and Monte-Carlo study harness.

Submodules: clock (truth model), scenario (ground-truth generation),
netcomm (Gaussian-sum / variational-Bayes filtering and baselines),
thermal (temperature self-correction), fusion (Pareto-optimal weighting),
bclb (Fisher-information bound recursions), and the run harness
(config, runner, report, cli).
"""

__version__ = "0.1.0"

from .clock import ClockDynamics, ClockParams, StateSpace, advance_truth, build_state_space
from .thermal import (
    TempSkewModel,
    measure_temperature,
    skew_from_temperature,
    thermal_bias,
    thermal_second_moment,
)
from .scenario import (
    EmpiricalDelayTable,
    ExchangeBatch,
    ExchangeRecord,
    LinkConfig,
    PdvProfile,
    RateSegment,
    ScenarioConfig,
    ThermalProfile,
    ThermalSegment,
    TruthOptions,
    generate_scenario,
    load_delay_csv,
    oscillator_temp_step,
    sample_measurement_noise,
    simulate_exchange,
    temperature_at,
)
from .netcomm import (
    GaussianBelief,
    GsfVbFilter,
    KalmanBaseline,
    MixtureNoiseModel,
    VbSettings,
    build_measurement,
    gptp_offset,
    gptp_skew,
    gsf_predict,
    gsf_update,
    isotropic_mixture_model,
    nominal_noise_cov,
    vb_refine,
)
from .fusion import (
    FusionWeights,
    PhaseErrorStats,
    fuse_skew,
    fusion_bias,
    fusion_cost,
    fusion_variance,
    pareto_beta,
)
from .bclb import FusionBclbParams, OracleNoiseTruth, bclb_trajectory, fisher_step_fusion, fisher_step_linear
