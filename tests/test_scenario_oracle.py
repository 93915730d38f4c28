"""The array-form scenario generator against the per-period oracle, bit for bit."""
from dataclasses import replace

import numpy as np
import pytest

import oracles
from tacd.config import load_config
from tacd.scenario import (
    EmpiricalDelayTable,
    EmpiricalSource,
    ThermalProfile,
    ThermalSegment,
    TruthOptions,
    generate_scenario,
)

from conftest import SHIPPED, STUDY, config_path


def _bits(x) -> np.ndarray:
    return np.ascontiguousarray(x, dtype=float).view(np.uint64)


def _assert_same(cfg, seeds, bit_generator=np.random.PCG64):
    """All seeds through one batch call; each row against the one-run oracle.
    Returns the batch."""
    rngs_new = [np.random.Generator(bit_generator(seed)) for seed in seeds]
    new = generate_scenario(cfg, rngs_new)
    for i, seed in enumerate(seeds):
        rng_old = np.random.Generator(bit_generator(seed))
        old = oracles.generate_scenario(cfg, rng_old)
        for name in ("skew_true", "offset_true", "temp_osc", "temp_meas"):
            assert np.array_equal(_bits(getattr(new, name)[i]), _bits(getattr(old, name))), (seed, name)
        for name in ("t1", "t2", "t3", "t4", "period_index"):
            want = [getattr(r, name) for r in old.records]
            assert np.array_equal(_bits(getattr(new.exchanges, name)[i]), _bits(want)), (seed, name)
        assert new.d == old.link.d
        # both leave the stream at the same place
        assert rngs_new[i].random() == rng_old.random(), seed
    return new


@pytest.mark.parametrize("case", SHIPPED)
def test_shipped_configs_match_oracle(case):
    _assert_same(load_config(config_path(case)).scenario, range(32))


@pytest.mark.parametrize("case", SHIPPED)
@pytest.mark.parametrize("bit_generator", [np.random.MT19937, np.random.Philox, np.random.SFC64, np.random.PCG64DXSM],
                         ids=lambda b: b.__name__)
def test_shipped_configs_match_oracle_on_other_bit_generators(bit_generator, case):
    # the per-run Generator.random() uniforms and the shared normal calls
    # give the oracle's values and leave the stream where its scalar calls
    # do, whatever the bit generator's kind
    _assert_same(load_config(config_path(case)).scenario, range(4), bit_generator)


@pytest.mark.parametrize("case, shared", [("case1", True), ("case2", True), ("case3", True), ("fusion_study", False)])
def test_thermal_path_without_draws_is_one_shared_row(case, shared):
    # a thermal path without colored noise is the same in every run, so the
    # runs share one row of it; the values stay the oracle's bit for bit
    temp = _assert_same(load_config(config_path(case)).scenario, range(4)).temp_osc
    assert temp.shape[0] == 4 and not temp.flags.writeable
    assert (temp.strides[0] == 0) == shared


def _colored_ends(h: int) -> ThermalProfile:
    """Colored noise at k = 0 and k = h - 1, a deterministic segment between."""
    colored = {"mean": 22.0, "var_base": 0.05, "var_slope": 0.01, "var_ref_k": 0.0}
    segments = [ThermalSegment(0, 0, "colored-noise", colored)]
    if h > 2:
        segments.append(ThermalSegment(1, h - 2, "multimodal", {"amp": 1.1, "quad": 0.005, "offset": 40.0}))
    if h > 1:
        segments.append(ThermalSegment(h - 1, h - 1, "colored-noise", colored))
    return ThermalProfile(tuple(segments), cooling_constant=7.0, initial_oscillator_temp=25.0)


@pytest.mark.parametrize("horizon", [1, 2, 40])
def test_colored_noise_at_both_ends_matches_oracle(horizon):
    cfg = replace(STUDY.scenario, horizon=horizon, thermal=_colored_ends(horizon))
    _assert_same(cfg, range(8))


def test_colored_noise_past_the_horizon_matches_oracle():
    # the segment covers no period and draws nothing, yet the thermal path
    # keeps one row per run, as with any colored-noise segment
    base = load_config(config_path("case2")).scenario
    h = base.horizon
    segments = base.thermal.segments + (ThermalSegment(h, h + 5, "colored-noise", {
        "mean": 22.0, "var_base": 0.05, "var_slope": 0.01, "var_ref_k": 0.0}),)
    cfg = replace(base, thermal=replace(base.thermal, segments=segments))
    temp = _assert_same(cfg, range(3)).temp_osc
    assert temp.shape == (3, h) and temp.strides[0] != 0


def test_gauss_markov_residual_matches_oracle():
    base = load_config(config_path("case3")).scenario
    truth = TruthOptions(initial_offset=2e-6, initial_skew_residual=3e-7, process_noise_sq=1e-14)
    _assert_same(replace(base, truth=truth, gm_coefficient=0.97), range(8))
    uncoupled = replace(truth, thermal_coupling=False)
    _assert_same(replace(base, truth=uncoupled, gm_coefficient=0.97), range(8))


def test_empirical_mode_matches_oracle():
    rng = np.random.default_rng(4)
    table = EmpiricalDelayTable({(64, 5.0): rng.uniform(4e-6, 9e-6, 300), (64, 25.0): rng.uniform(2e-6, 5e-6, 200)})
    base = STUDY.scenario
    cfg = replace(
        base,
        pdv=None,
        link=None,
        empirical=EmpiricalSource(table=table, forward_cell=(64, 5), reverse_cell=(64, 25)),
        thermal=_colored_ends(base.horizon),
    )
    _assert_same(cfg, range(8))


def _one_run(cfg, rng):
    return generate_scenario(cfg, [rng])


def _error(gen, cfg) -> str:
    with pytest.raises(ValueError) as info:
        gen(cfg, np.random.default_rng(0))
    return str(info.value)


def test_checks_keep_their_messages():
    base = STUDY.scenario
    bad_var = {"mean": 20.0, "var_base": 0.02, "var_slope": 0.01, "var_ref_k": 30.0}
    segs = (ThermalSegment(0, 9, "colored-noise", bad_var), ThermalSegment(10, 74, "constant", {"value": 30.0}))
    cfg = replace(base, thermal=ThermalProfile(segs))
    message = _error(_one_run, cfg)
    assert message.startswith("colored-noise variance is non-positive") and message.endswith("at period 0")
    assert message == _error(oracles.generate_scenario, cfg)
    huge = replace(base, truth=TruthOptions(initial_skew_residual=2.0, thermal_coupling=False))
    message = _error(_one_run, huge)
    assert message == _error(oracles.generate_scenario, huge) == "skew must satisfy |skew| < 1, got 2.0"
