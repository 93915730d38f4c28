import numpy as np
import pytest

from tacd.fusion import thermal_variance
from tacd.thermal import TempSkewModel, skew_from_temperature, thermal_bias

from conftest import thermal_run


@pytest.fixture
def model():
    return TempSkewModel()


def test_perfect_sensor():
    data = thermal_run(31.5, 31.5, 10.0, 4, sigma_T_sq=0.0)
    assert np.all(data.temp_meas == 31.5)


def test_sensor_noise_statistics(model):
    rng = np.random.default_rng(1)
    draws = 25.0 + rng.standard_normal(10**6) * np.sqrt(model.sigma_T_sq)
    assert draws.mean() == pytest.approx(25.0, abs=0.002)
    assert draws.var() == pytest.approx(0.1, rel=0.01)
    # the generator's sensor readings draw from the same distribution
    data = thermal_run(25.0, 25.0, 10.0, 4000, sigma_T_sq=model.sigma_T_sq, seed=1)
    few = data.temp_meas - data.temp_osc
    assert few.var() == pytest.approx(0.1, rel=0.1)


def test_skew_at_vertex(model):
    m = TempSkewModel(theta0=7e-7)
    assert skew_from_temperature(25.0, m) == 7e-7


def test_skew_reference_values(model):
    assert skew_from_temperature(35.0, model) == pytest.approx(4e-6, rel=1e-12, abs=0.0)
    assert skew_from_temperature(-10.0, model) == pytest.approx(4.9e-5, rel=1e-12, abs=0.0)


def test_skew_symmetry(model):
    rng = np.random.default_rng(2)
    for _ in range(200):
        d = rng.uniform(0, 40)
        assert skew_from_temperature(25.0 + d, model) == pytest.approx(
            skew_from_temperature(25.0 - d, model), rel=1e-14, abs=0.0
        )


def test_bias_values(model):
    assert thermal_bias(TempSkewModel(sigma_T_sq=0.0)) == 0.0
    assert thermal_bias(model) == pytest.approx(4e-9, rel=1e-12, abs=0.0)


def test_second_moment_values(model):
    # the error's second moment is its variance plus its squared bias; the
    # variance reads the gap T - T0 (T = 35 C: a gap of 10)
    perfect = TempSkewModel(sigma_T_sq=0.0)
    assert thermal_variance(10.0, perfect) + thermal_bias(perfect) ** 2 == 0.0
    at_vertex = thermal_variance(0.0, model) + thermal_bias(model) ** 2
    assert at_vertex == pytest.approx(3 * model.kappa**2 * 0.1**2, rel=1e-12, abs=0.0)
    assert at_vertex == pytest.approx(4.8e-17, rel=1e-9, abs=0.0)
    assert thermal_variance(10.0, model) + thermal_bias(model) ** 2 == pytest.approx(6.4048e-14, rel=1e-6, abs=0.0)
