import numpy as np
import pytest

from tacd.thermal import (
    TempSkewModel,
    skew_from_temperature,
    thermal_bias,
    thermal_second_moment,
)

from conftest import thermal_run


@pytest.fixture
def model():
    return TempSkewModel(kappa=4e-8, T0=25.0, theta0=0.0, sigma_T_sq=0.1)


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
    m = TempSkewModel(kappa=4e-8, T0=25.0, theta0=7e-7, sigma_T_sq=0.1)
    assert skew_from_temperature(25.0, m) == 7e-7


def test_skew_reference_values(model):
    assert skew_from_temperature(35.0, model) == pytest.approx(4e-6, rel=1e-12, abs=0.0)
    assert skew_from_temperature(-10.0, model) == pytest.approx(4.9e-5, rel=1e-12, abs=0.0)


def test_skew_symmetry(model):
    rng = np.random.default_rng(2)
    for _ in range(200):
        d = rng.uniform(0, 40)
        assert skew_from_temperature(25.0 + d, model) == pytest.approx(
            skew_from_temperature(25.0 - d, model), rel=1e-14
        )


def test_bias_values(model):
    assert thermal_bias(TempSkewModel(4e-8, 25.0, 0.0, 0.0)) == 0.0
    assert thermal_bias(model) == pytest.approx(4e-9, rel=1e-12, abs=0.0)


def test_bias_monte_carlo(model):
    # truth follows the quadratic map exactly; estimate uses the noisy reading
    rng = np.random.default_rng(3)
    t_true = 30.0
    truth = skew_from_temperature(t_true, model)
    meas = t_true + rng.standard_normal(10**6) * np.sqrt(model.sigma_T_sq)
    est = model.kappa * (meas - model.T0) ** 2 + model.theta0
    bias = (est - truth).mean()
    assert bias == pytest.approx(4e-9, rel=0.1, abs=0.0)


def test_second_moment_values(model):
    assert thermal_second_moment(TempSkewModel(4e-8, 25.0, 0.0, 0.0), 35.0) == 0.0
    at_vertex = thermal_second_moment(model, 25.0)
    assert at_vertex == pytest.approx(3 * model.kappa**2 * 0.1**2, rel=1e-12, abs=0.0)
    assert at_vertex == pytest.approx(4.8e-17, rel=1e-9, abs=0.0)
    assert thermal_second_moment(model, 35.0) == pytest.approx(6.4048e-14, rel=1e-6, abs=0.0)


def test_second_moment_monte_carlo(model):
    # Gaussian fourth-moment identity checked at three operating points
    rng = np.random.default_rng(4)
    n = 10**7
    for t_true in (25.0, 31.0, 35.0):
        xi = rng.standard_normal(n) * np.sqrt(model.sigma_T_sq)
        err = model.kappa * (2.0 * (t_true - model.T0) * xi + xi**2)
        assert np.mean(err**2) == pytest.approx(thermal_second_moment(model, t_true), rel=0.05, abs=0.0)


def test_bias_independent_of_temperature(model):
    rng = np.random.default_rng(5)
    biases = []
    for t_true in (-10.0, 0.0, 25.0, 40.0):
        xi = rng.standard_normal(10**6) * np.sqrt(model.sigma_T_sq)
        err = model.kappa * (2.0 * (t_true - model.T0) * xi + xi**2)
        biases.append(err.mean())
    assert np.allclose(biases, 4e-9, rtol=0.15)
