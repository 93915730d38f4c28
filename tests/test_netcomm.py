from dataclasses import astuple, replace

import numpy as np
import pytest

from tacd.clock import ClockDynamics, StateSpace, build_state_space
from tacd.netcomm import (
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
from tacd.scenario import (
    ExchangeBatch,
    LinkConfig,
    PdvProfile,
    ScenarioConfig,
    TruthOptions,
    generate_scenario,
)
from tacd.thermal import TempSkewModel

from conftest import M_GM, SIGMA_U_SQ, constant_thermal, exchange, run_measurements


def _rec(t1, t2, t3, t4, k):
    return ExchangeBatch(t1=t1, t2=t2, t3=t3, t4=t4, period_index=k)


def _stationary_cfg(horizon, stddevs, weights, process_noise_sq=SIGMA_U_SQ, skew0=3e-7):
    return ScenarioConfig(
        tau=1.0,
        horizon=horizon,
        link=LinkConfig(5e-6, 1e-6),
        pdv=PdvProfile(initial_stddevs=stddevs, initial_weights=weights),
        thermal=constant_thermal(horizon),
        temp_model=TempSkewModel(kappa=4e-8, T0=25.0, theta0=0.0, sigma_T_sq=0.1),
        truth=TruthOptions(
            initial_offset=1e-6,
            initial_skew_residual=skew0,
            process_noise_sq=process_noise_sq,
            thermal_coupling=False,
        ),
        gm_coefficient=M_GM,
    )


def _default_belief():
    return GaussianBelief(mean=np.array([3e-7, 3.5e-6]), cov=np.diag([5e-6, 5e-6]))


def _per_run(x, runs):
    """x repeated along a new leading run axis."""
    return np.broadcast_to(x, (runs,) + np.shape(x)).copy()


def _per_run_belief(runs):
    belief = _default_belief()
    return GaussianBelief(_per_run(belief.mean, runs), _per_run(belief.cov, runs))


def _batch_runs(cfg, seeds):
    """Generated runs of the given seeds: true skews (R, h) and measurements (R, h - 1, 2)."""
    data = generate_scenario(cfg, [np.random.default_rng(seed) for seed in seeds])
    return data.skew_true, run_measurements(data)


# ------------------------------------------------------------ measurements

def test_measurement_identical_consecutive_records():
    a = _rec(0.0, 1e-5, 2e-2, 2e-2 + 1e-5, 0)
    b = _rec(0.0, 1e-5, 2e-2, 2e-2 + 1e-5, 1)
    z = build_measurement(b, a, d=0.0)
    assert z[0] == 0.0


def test_measurement_reference_offset():
    link = LinkConfig(5e-6, 1e-6)
    r0 = exchange(1e-6, link, 0.0, 0.0, 0, tau=1.0)
    r1 = exchange(1e-6, link, 0.0, 0.0, 1, tau=1.0)
    z = build_measurement(r1, r0, link.d)
    assert z[0] == pytest.approx(0.0, abs=1e-18)
    assert z[1] == pytest.approx(2e-6, rel=1e-9, abs=0.0)


def test_measurement_consistency_constant_skew():
    # noise-free records give z = (tau*theta, 2*delta) exactly
    rng = np.random.default_rng(6)
    link = LinkConfig(9e-6, 2e-6)
    for _ in range(300):
        theta = rng.uniform(-1e-5, 1e-5)
        delta0 = rng.uniform(-1e-5, 1e-5)
        tau = rng.uniform(0.1, 4.0)
        d1 = delta0 + tau * theta
        r0 = exchange(delta0, link, 0.0, 0.0, 0, tau)
        r1 = exchange(d1, link, 0.0, 0.0, 1, tau)
        z = build_measurement(r1, r0, link.d)
        assert z[0] == pytest.approx(tau * theta, rel=1e-9, abs=1e-15)
        assert z[1] == pytest.approx(2 * d1, rel=1e-9, abs=1e-15)


def test_measurement_rejects_non_consecutive():
    a = _rec(0.0, 1e-5, 2e-2, 2e-2 + 1e-5, 0)
    b = _rec(0.0, 1e-5, 2e-2, 2e-2 + 1e-5, 2)
    with pytest.raises(ValueError, match="consecutive"):
        build_measurement(b, a, 0.0)
    # a gap in one run of a batch is reported with that run's periods
    stamps = np.array([[astuple(a), astuple(_rec(1.0, 1.0, 1.02, 1.02, 1))], [astuple(a), astuple(b)]], dtype=float)
    batch = _rec(*np.moveaxis(stamps, -1, 0))
    with pytest.raises(ValueError, match="got 0.0 then 2.0"):
        build_measurement(batch.periods(slice(1, None)), batch.periods(slice(None, -1)), 0.0)


def test_gptp_offset_examples():
    rec = _rec(0.0, 6e-6, 1e-2, 1e-2, 0)
    assert gptp_offset(rec, 4e-6) == pytest.approx(1e-6, rel=1e-12, abs=0.0)
    sym = exchange(0.0, LinkConfig(3e-6, 3e-6), 0.0, 0.0, 0, 1.0)
    assert gptp_offset(sym, 0.0) == pytest.approx(0.0, abs=1e-18)


def test_gptp_offset_error_term():
    link = LinkConfig(5e-6, 1e-6)
    rec = exchange(0.0, link, 2e-6, 0.0, 0, 1.0)
    assert gptp_offset(rec, link.d) == pytest.approx(1e-6, rel=1e-9, abs=0.0)  # (w1-w2)/2


def test_gptp_skew():
    a = _rec(0.0, 1e-5, 2e-2, 2e-2 + 1e-5, 0)
    b = _rec(1.0, 1.0 + 1e-5, 1.02, 1.02 + 1e-5, 1)
    assert gptp_skew(b, a, tau=1.0) == pytest.approx(0.0, abs=1e-18)

    link = LinkConfig(5e-6, 1e-6)
    theta = 1e-6
    r0 = exchange(1e-6, link, 0.0, 0.0, 0, 1.0)
    r1 = exchange(1e-6 + theta, link, 0.0, 0.0, 1, 1.0)
    assert gptp_skew(r1, r0, 1.0) == pytest.approx(theta, rel=1e-9, abs=0.0)
    # a forward-delay jump of tau*1e-6 shifts the estimate by exactly 1e-6
    r1j = exchange(1e-6 + theta, link, 1e-6, 0.0, 1, 1.0)
    assert gptp_skew(r1j, r0, 1.0) - theta == pytest.approx(1e-6, rel=1e-9, abs=0.0)


# ------------------------------------------------------------------ predict

def test_predict_deterministic_when_noise_free():
    ss = StateSpace(
        A=np.array([[0.9, 0.0], [0.9, 1.0]]),
        Q_v=np.zeros((2, 2)),
        H=np.diag([1.0, 2.0]),
    )
    belief = GaussianBelief(mean=np.array([1e-6, 2e-6]), cov=np.eye(2) * 1e-30)
    out = gsf_predict(belief, ss)
    assert np.allclose(out.mean, ss.A @ [1e-6, 2e-6], rtol=1e-15, atol=0.0)
    assert np.max(out.cov) < 1e-29


def test_predict_identity_dynamics():
    ss = build_state_space(ClockDynamics(m=1.0, sigma_u_sq=1e-12, tau=1.0))
    out = gsf_predict(GaussianBelief(np.array([1e-6, 0.0]), np.eye(2) * 1e-12), ss)
    assert np.allclose(out.mean, [1e-6, 1e-6], rtol=1e-15, atol=0.0)


def test_predict_reference_step():
    dyn = ClockDynamics(m=M_GM, sigma_u_sq=SIGMA_U_SQ, tau=1.0)
    ss = build_state_space(dyn)
    belief = _default_belief()
    out = gsf_predict(belief, ss)
    assert np.allclose(out.mean, ss.A @ belief.mean, rtol=1e-15, atol=0.0)
    expect_cov = ss.A @ belief.cov @ ss.A.T + ss.Q_v
    assert np.allclose(out.cov, 0.5 * (expect_cov + expect_cov.T), rtol=1e-15, atol=0.0)


# ------------------------------------------------------------------- update

def _manual_kf_update(x, P, z, H, R):
    S = H @ P @ H.T + R
    K = P @ H.T @ np.linalg.inv(S)
    xn = x + K @ (z - H @ x)
    IKH = np.eye(2) - K @ H
    Pn = IKH @ P @ IKH.T + K @ R @ K.T
    return xn, Pn


def test_update_single_component_is_kalman(ss):
    noise = MixtureNoiseModel.from_point_estimates([1.0], [5e-6])
    belief = _default_belief()
    z = np.array([2e-6, 3e-6])
    res = gsf_update(belief, z, noise, ss)
    xn, Pn = _manual_kf_update(belief.mean, belief.cov, z, ss.H, noise.point_covariances[0])
    assert np.allclose(res.belief.mean, xn, rtol=1e-12, atol=0.0)
    assert np.allclose(res.belief.cov, Pn, rtol=1e-12, atol=0.0)
    assert res.epsilon == res.belief.cov[0, 0]


def test_update_identical_components_degenerate(ss):
    belief = _default_belief()
    z = np.array([2e-6, 3e-6])
    one = gsf_update(belief, z, MixtureNoiseModel.from_point_estimates([1.0], [5e-6]), ss)
    two = gsf_update(belief, z, MixtureNoiseModel.from_point_estimates([0.5, 0.5], [5e-6, 5e-6]), ss)
    assert np.allclose(one.belief.mean, two.belief.mean, rtol=1e-12, atol=0.0)
    assert np.allclose(one.belief.cov, two.belief.cov, rtol=1e-12, atol=0.0)
    assert np.allclose(two.responsibilities, [0.5, 0.5], atol=1e-12)


def test_update_matches_brute_force_mixture_moments(ss):
    rng = np.random.default_rng(14)
    for _ in range(50):
        p = rng.uniform(1e-12, 1e-10, 2)
        cov = np.diag(p) + np.array([[0.0, 1.0], [1.0, 0.0]]) * np.sqrt(p.prod()) * 0.3
        belief = GaussianBelief(rng.normal(0, 1e-6, 2), cov)
        w0 = rng.uniform(0.2, 0.8)
        noise = MixtureNoiseModel.from_point_estimates(
            [w0, 1.0 - w0], rng.uniform(1e-6, 1e-5, 2)
        )
        z = np.array(ss.H @ belief.mean + rng.normal(0, 5e-6, 2))
        res = gsf_update(belief, z, noise, ss)

        # brute force: explicit per-component posteriors and log weights
        logw = np.empty(2)
        means, covs = [], []
        for j in range(2):
            R = noise.point_covariances[j]
            S = ss.H @ belief.cov @ ss.H.T + R
            v = z - ss.H @ belief.mean
            logw[j] = (
                np.log(noise.point_weights[j])
                - 0.5 * (v @ np.linalg.solve(S, v) + np.linalg.slogdet(S)[1] + 2 * np.log(2 * np.pi))
            )
            xn, Pn = _manual_kf_update(belief.mean, belief.cov, z, ss.H, R)
            means.append(xn)
            covs.append(Pn)
        w = np.exp(logw - logw.max())
        w /= w.sum()
        mean = w[0] * means[0] + w[1] * means[1]
        cov = sum(
            w[j] * (covs[j] + np.outer(means[j] - mean, means[j] - mean)) for j in range(2)
        )
        assert np.allclose(res.responsibilities, w, atol=1e-12)
        assert np.allclose(res.belief.mean, mean, rtol=1e-12, atol=1e-12 * np.linalg.norm(mean))
        assert np.allclose(res.belief.cov, cov, rtol=1e-12, atol=1e-12 * np.abs(cov).max())


def test_update_posterior_spd_randomized(ss):
    rng = np.random.default_rng(15)
    for _ in range(1000):
        d = rng.uniform(1e-13, 1e-9, 2)
        off = rng.uniform(-0.9, 0.9) * np.sqrt(d.prod())
        belief = GaussianBelief(rng.normal(0, 1e-5, 2), np.array([[d[0], off], [off, d[1]]]))
        n = int(rng.integers(1, 4))
        wts = rng.dirichlet(np.ones(n))
        noise = MixtureNoiseModel.from_point_estimates(wts, rng.uniform(5e-7, 2e-5, n))
        z = np.array(ss.H @ belief.mean + rng.normal(0, 1e-5, 2))
        res = gsf_update(belief, z, noise, ss)
        vals = np.linalg.eigvalsh(res.belief.cov)
        assert vals[0] > 0.0
        assert abs(res.responsibilities.sum() - 1.0) < 1e-12
        assert np.allclose(res.belief.cov, res.belief.cov.T, atol=0.0)


def test_update_underflow_fallback(ss):
    noise = MixtureNoiseModel.from_point_estimates([0.5, 0.5], [1e-6, 2e-6])
    belief = _default_belief()
    res = gsf_update(belief, np.array([1e300, 1e300]), noise, ss)
    assert res.underflow
    assert np.allclose(res.responsibilities, [0.5, 0.5], atol=0.0)


# ----------------------------------------------------------------------- VB

def test_vb_single_component_conjugacy(ss):
    # with no forgetting, chi grows by one per period and V accumulates S
    vb = VbSettings(max_iterations=5, forgetting_factor=1.0)
    noise = MixtureNoiseModel(
        dirichlet_concentration=np.array([2.0]),
        iw_dof=np.array([5.0]),
        iw_scale=np.array([np.eye(2) * 1e-11]),
    )
    belief = _default_belief()
    rng = np.random.default_rng(16)
    expected_chi = 2.0
    expected_scale = np.eye(2) * 1e-11
    for _ in range(7):
        z = np.array(ss.H @ belief.mean + rng.normal(0, 3e-6, 2))
        resid = z - ss.H @ belief.mean
        S = np.outer(resid, resid) + ss.H @ belief.cov @ ss.H.T
        noise = vb_refine(noise, z, belief, ss, vb)
        expected_chi += 1.0
        expected_scale = expected_scale + S
        assert noise.dirichlet_concentration[0] == pytest.approx(expected_chi, rel=1e-12)
        assert np.allclose(noise.iw_scale[0], expected_scale, rtol=1e-12, atol=0.0)


def test_vb_symmetric_components(ss):
    noise = MixtureNoiseModel(
        dirichlet_concentration=np.array([3.0, 3.0]),
        iw_dof=np.array([6.0, 6.0]),
        iw_scale=np.array([np.eye(2) * 1e-11, np.eye(2) * 1e-11]),
    )
    belief = _default_belief()
    z = np.array([2e-6, -1e-6])
    out = vb_refine(noise, z, belief, ss, VbSettings())
    assert out.point_weights[0] == pytest.approx(0.5, abs=1e-12)
    assert np.allclose(out.iw_scale[0], out.iw_scale[1], atol=0.0)


def test_vb_dof_clamped_mean(ss):
    # the shipped init puts two dofs at the existence boundary; the mean clamps
    noise = isotropic_mixture_model([1, 5, 5], [4, 3, 3], [1e-7, 2e-7, 2e-7])
    assert noise.dof_clamped
    covs = noise.point_covariances
    assert np.allclose(covs[0], np.eye(2) * 1e-7, atol=0.0)
    assert np.allclose(covs[1], np.eye(2) * 2e-7, atol=0.0)


@pytest.mark.slow
def test_vb_recovers_mixture_variance():
    # stationary mixture, 500 periods; seed-averaged recovered covariance
    # within 25% of the true mixture variance
    dyn = ClockDynamics(m=M_GM, sigma_u_sq=1e-16, tau=1.0)
    ss = build_state_space(dyn)
    cfg = _stationary_cfg(500, (5e-6, 3e-6, 5e-6), (0.4, 0.3, 0.3), process_noise_sq=1e-16)
    true_var = float(np.sum(np.array([0.4, 0.3, 0.3]) * np.array([5e-6, 3e-6, 5e-6]) ** 2))
    acc = []
    for seed in range(6):
        z = run_measurements(generate_scenario(cfg, [np.random.default_rng(100 + seed)]))[0]
        filt = GsfVbFilter(
            ss,
            isotropic_mixture_model([1, 5, 5], [4, 3, 3], [1e-7, 2e-7, 2e-7]),
            _default_belief(),
            vb=VbSettings(),
        )
        effs = []
        for k in range(1, 500):
            filt.step(z[k - 1])
            if k >= 400:
                effs.append(
                    np.einsum("i,iab->ab", filt.noise.point_weights, filt.noise.point_covariances)
                )
        acc.append(np.mean(effs, axis=0))
    mean_cov = np.mean(acc, axis=0)
    assert mean_cov[0, 0] == pytest.approx(true_var, rel=0.25)
    assert mean_cov[1, 1] == pytest.approx(true_var, rel=0.25)


# --------------------------------------------------------------------- step

def test_step_zero_noise_exact_tracking(ss):
    link = LinkConfig(5e-6, 1e-6)
    theta, delta = 1e-6, 1e-6
    recs = []
    d_cur = delta
    for k in range(40):
        if k > 0:
            d_cur += theta
        recs.append(exchange(d_cur, link, 0.0, 0.0, k, 1.0))
    ss_rw = build_state_space(ClockDynamics(m=1.0, sigma_u_sq=1e-18, tau=1.0))
    filt = GsfVbFilter(
        ss_rw,
        MixtureNoiseModel.from_point_estimates([1.0], [1e-6]),
        GaussianBelief(np.array([theta, delta]), np.diag([1e-12, 1e-12])),
        vb=None,
    )
    for k in range(1, 40):
        res = filt.step(build_measurement(recs[k], recs[k - 1], link.d))
        assert res.skew == pytest.approx(theta, rel=1e-9, abs=0.0)
        assert res.offset == pytest.approx(delta + k * theta, rel=1e-9, abs=0.0)


@pytest.mark.slow
def test_step_skew_estimator_bias_small():
    # stationary mixture, 200 paired runs: skew bias under 0.2x RMSE per period
    cfg = _stationary_cfg(75, (5e-6, 3e-6, 5e-6), (0.4, 0.3, 0.3))
    dyn = ClockDynamics(m=M_GM, sigma_u_sq=SIGMA_U_SQ, tau=1.0)
    ss = build_state_space(dyn)
    n = 200
    skew_true, z = _batch_runs(cfg, [5000 + r for r in range(n)])
    noise = isotropic_mixture_model([1, 5, 5], [4, 3, 3], [1e-7, 2e-7, 2e-7])
    noise = replace(
        noise,
        dirichlet_concentration=_per_run(noise.dirichlet_concentration, n),
        iw_dof=_per_run(noise.iw_dof, n),
        iw_scale=_per_run(noise.iw_scale, n),
    )
    filt = GsfVbFilter(ss, noise, _per_run_belief(n), vb=VbSettings())
    errs = np.empty((n, 75))
    errs[:, 0] = 3e-7 - skew_true[:, 0]
    for k in range(1, 75):
        res = filt.step(z[:, k - 1])
        errs[:, k] = res.skew - skew_true[:, k]
    bias = errs.mean(axis=0)
    rmse = np.sqrt((errs**2).mean(axis=0))
    assert np.all(np.abs(bias[30:]) < 0.2 * rmse[30:])


def test_step_equals_fixed_noise_kalman_for_single_component():
    cfg = _stationary_cfg(200, (5e-6,), (1.0,))
    data = generate_scenario(cfg, [np.random.default_rng(99)])
    dyn = ClockDynamics(m=M_GM, sigma_u_sq=SIGMA_U_SQ, tau=1.0)
    ss = build_state_space(dyn)
    gsf = GsfVbFilter(
        ss, MixtureNoiseModel.from_point_estimates([1.0], [5e-6]), _default_belief(), vb=None
    )
    kal = KalmanBaseline(ss, nominal_noise_cov(5e-6), _default_belief())
    for z in run_measurements(data)[0]:
        a = gsf.step(z)
        b = kal.step(z)
        assert a.skew == pytest.approx(b.skew, rel=1e-12, abs=0.0)
        assert a.offset == pytest.approx(b.offset, rel=1e-12, abs=0.0)
        assert np.allclose(a.belief.cov, b.belief.cov, rtol=1e-12, atol=0.0)


def test_kalman_misspecified_noise_still_unbiased():
    cfg = _stationary_cfg(75, (5e-6,), (1.0,))
    dyn = ClockDynamics(m=M_GM, sigma_u_sq=SIGMA_U_SQ, tau=1.0)
    ss = build_state_space(dyn)
    n = 300
    skew_true, z = _batch_runs(cfg, [7000 + r for r in range(n)])
    kal = KalmanBaseline(ss, nominal_noise_cov(5e-5), _per_run_belief(n))  # 10x true
    errs = np.empty((n, 74))
    for k in range(1, 75):
        res = kal.step(z[:, k - 1])
        errs[:, k - 1] = res.skew - skew_true[:, k]
    bias = errs[:, 30:].mean()
    rmse = np.sqrt((errs[:, 30:] ** 2).mean())
    assert abs(bias) < 0.2 * rmse
