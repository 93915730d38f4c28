"""The array-form scenario generator against the per-period oracle, bit for bit."""
from dataclasses import astuple, replace

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

from conftest import study_pdv_profile

SHIPPED = ("case1", "case2", "case3", "fusion_study")


def _bits(x) -> np.ndarray:
    return np.ascontiguousarray(x, dtype=float).view(np.uint64)


def _assert_same(cfg, seeds) -> None:
    for seed in seeds:
        rng_new, rng_old = np.random.default_rng(seed), np.random.default_rng(seed)
        new = generate_scenario(cfg, rng_new)
        old = oracles.generate_scenario(cfg, rng_old)
        for name in ("skew_true", "offset_true", "temp_osc", "temp_meas"):
            assert np.array_equal(_bits(getattr(new, name)), _bits(getattr(old, name))), (seed, name)
        assert np.array_equal(_bits(new.stamps), _bits([astuple(r) for r in old.records])), seed
        assert new.link == old.link
        # both leave the stream at the same place
        assert rng_new.random() == rng_old.random(), seed


@pytest.mark.parametrize("case", SHIPPED)
def test_shipped_configs_match_oracle(case):
    _assert_same(load_config(f"configs/{case}.json").scenario, range(32))


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
    base = load_config("configs/fusion_study.json").scenario
    cfg = replace(base, horizon=horizon, pdv=study_pdv_profile(), thermal=_colored_ends(horizon))
    _assert_same(cfg, range(8))


def test_gauss_markov_residual_matches_oracle():
    base = load_config("configs/case3.json").scenario
    truth = TruthOptions(initial_offset=2e-6, initial_skew_residual=3e-7, process_noise_sq=1e-14)
    _assert_same(replace(base, truth=truth, gm_coefficient=0.97), range(8))
    uncoupled = replace(truth, thermal_coupling=False)
    _assert_same(replace(base, truth=uncoupled, gm_coefficient=0.97), range(8))


def test_empirical_mode_matches_oracle():
    rng = np.random.default_rng(4)
    table = EmpiricalDelayTable({(64, 5.0): rng.uniform(4e-6, 9e-6, 300), (64, 25.0): rng.uniform(2e-6, 5e-6, 200)})
    base = load_config("configs/fusion_study.json").scenario
    cfg = replace(
        base,
        pdv=None,
        empirical=EmpiricalSource(table=table, forward_cell=(64, 5), reverse_cell=(64, 25)),
        thermal=_colored_ends(base.horizon),
    )
    _assert_same(cfg, range(8))


def _error(gen, cfg) -> str:
    with pytest.raises(ValueError) as info:
        gen(cfg, np.random.default_rng(0))
    return str(info.value)


def test_checks_keep_their_messages():
    base = load_config("configs/fusion_study.json").scenario
    bad_var = {"mean": 20.0, "var_base": 0.02, "var_slope": 0.01, "var_ref_k": 30.0}
    segs = (ThermalSegment(0, 9, "colored-noise", bad_var), ThermalSegment(10, 74, "constant", {"value": 30.0}))
    cfg = replace(base, thermal=ThermalProfile(segs))
    message = _error(generate_scenario, cfg)
    assert message.startswith("colored-noise variance is non-positive") and message.endswith("at period 0")
    assert message == _error(oracles.generate_scenario, cfg)
    huge = replace(base, truth=TruthOptions(initial_skew_residual=2.0, thermal_coupling=False))
    message = _error(generate_scenario, huge)
    assert message == _error(oracles.generate_scenario, huge) == "skew must satisfy |skew| < 1, got 2.0"
