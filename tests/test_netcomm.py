from dataclasses import astuple, replace

import numpy as np
import pytest

from tacd.clock import ClockDynamics, build_state_space
from tacd.netcomm import (
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
from tacd.scenario import (
    NOISE_CORR,
    ExchangeBatch,
    LinkConfig,
    PdvProfile,
    TruthOptions,
    generate_scenario,
)

from conftest import STUDY, constant_thermal, exchange, run_measurements, study_noise, study_prior


def _rec(t1, t2, t3, t4, k):
    return ExchangeBatch(t1=t1, t2=t2, t3=t3, t4=t4, period_index=k)


def _periods(*recs):
    """Single exchanges stacked along a new last (period) axis."""
    return ExchangeBatch(*(np.array(field, dtype=float) for field in zip(*map(astuple, recs))))


def _stationary_cfg(horizon, stddevs, weights, process_noise_sq=STUDY.dynamics.sigma_u_sq, skew0=3e-7):
    return replace(
        STUDY.scenario,
        horizon=horizon,
        pdv=PdvProfile(initial_stddevs=stddevs, initial_weights=weights),
        thermal=constant_thermal(horizon),
        truth=TruthOptions(initial_skew_residual=skew0, process_noise_sq=process_noise_sq, thermal_coupling=False),
    )


def _per_run(x, runs):
    """x repeated along a new leading run axis."""
    return np.broadcast_to(x, (runs,) + np.shape(x)).copy()


def _batch_runs(cfg, seeds):
    """Generated runs of the given seeds: true skews (R, h) and measurements (R, h - 1, 2)."""
    data = generate_scenario(cfg, [np.random.default_rng(seed) for seed in seeds])
    return data.skew_true, run_measurements(data)


# ------------------------------------------------------------ measurements

def test_measurement_identical_consecutive_records():
    a = _rec(0.0, 1e-5, 2e-2, 2e-2 + 1e-5, 0)
    b = _rec(0.0, 1e-5, 2e-2, 2e-2 + 1e-5, 1)
    z = build_measurement(_periods(a, b), d=0.0)
    assert np.isnan(z[0, 0])  # no earlier exchange
    assert z[1, 0] == 0.0


def test_measurement_reference_offset():
    link = LinkConfig(5e-6, 1e-6)
    z = build_measurement(exchange(1e-6, link, 0.0, 0.0, np.arange(2), tau=1.0), link.d)
    assert z[1, 0] == pytest.approx(0.0, abs=1e-18)
    assert z[:, 1] == pytest.approx([2e-6, 2e-6], rel=1e-9, abs=0.0)


def test_measurement_consistency_constant_skew():
    # noise-free records give z = (tau*theta, 2*delta) exactly
    rng = np.random.default_rng(6)
    link = LinkConfig(9e-6, 2e-6)
    for _ in range(300):
        theta = rng.uniform(-1e-5, 1e-5)
        delta0 = rng.uniform(-1e-5, 1e-5)
        tau = rng.uniform(0.1, 4.0)
        d1 = delta0 + tau * theta
        z = build_measurement(exchange(np.array([delta0, d1]), link, 0.0, 0.0, np.arange(2), tau), link.d)
        assert z[1, 0] == pytest.approx(tau * theta, rel=1e-9, abs=1e-15)
        assert z[1, 1] == pytest.approx(2 * d1, rel=1e-9, abs=1e-15)


def test_measurement_rejects_non_consecutive():
    a = _rec(0.0, 1e-5, 2e-2, 2e-2 + 1e-5, 0)
    b = _rec(0.0, 1e-5, 2e-2, 2e-2 + 1e-5, 2)
    with pytest.raises(ValueError, match="consecutive"):
        build_measurement(_periods(a, b), 0.0)
    # a gap in one run of a batch is reported with that run's periods
    stamps = np.array([[astuple(a), astuple(_rec(1.0, 1.0, 1.02, 1.02, 1))], [astuple(a), astuple(b)]], dtype=float)
    batch = _rec(*np.moveaxis(stamps, -1, 0))
    with pytest.raises(ValueError, match="got 0.0 then 2.0"):
        build_measurement(batch, 0.0)


def test_measurement_rejects_exchange_without_period_axis():
    with pytest.raises(ValueError, match="period axis"):
        build_measurement(ExchangeBatch(0.0, 1e-5, 2e-2, 2e-2, 0), 0.0)


# plain gPTP reads skew z[..., 0] / tau and offset z[..., 1] / 2 off the measurement

def test_gptp_two_way_offset_examples():
    z = build_measurement(_periods(_rec(0.0, 6e-6, 1e-2, 1e-2, 0)), 4e-6)
    assert z[0, 1] / 2 == pytest.approx(1e-6, rel=1e-12, abs=0.0)
    z = build_measurement(exchange(0.0, LinkConfig(3e-6, 3e-6), 0.0, 0.0, np.arange(1), 1.0), 0.0)
    assert z[0, 1] / 2 == pytest.approx(0.0, abs=1e-18)


def test_gptp_two_way_offset_error_term():
    link = LinkConfig(5e-6, 1e-6)
    z = build_measurement(exchange(0.0, link, 2e-6, 0.0, np.arange(1), 1.0), link.d)
    assert z[0, 1] / 2 == pytest.approx(1e-6, rel=1e-9, abs=0.0)  # (w1-w2)/2


def test_gptp_forward_path_skew():
    a = _rec(0.0, 1e-5, 2e-2, 2e-2 + 1e-5, 0)
    b = _rec(1.0, 1.0 + 1e-5, 1.02, 1.02 + 1e-5, 1)
    assert build_measurement(_periods(a, b), 0.0)[1, 0] / 1.0 == pytest.approx(0.0, abs=1e-18)

    link = LinkConfig(5e-6, 1e-6)
    theta = 1e-6
    offsets = np.array([1e-6, 1e-6 + theta])
    z = build_measurement(exchange(offsets, link, 0.0, 0.0, np.arange(2), 1.0), link.d)
    assert z[1, 0] / 1.0 == pytest.approx(theta, rel=1e-9, abs=0.0)
    # a forward-delay jump of tau*1e-6 shifts the estimate by exactly 1e-6
    zj = build_measurement(exchange(offsets, link, np.array([0.0, 1e-6]), 0.0, np.arange(2), 1.0), link.d)
    assert zj[1, 0] / 1.0 - theta == pytest.approx(1e-6, rel=1e-9, abs=0.0)


# ------------------------------------------------------------------ predict

def test_predict_deterministic_when_noise_free():
    ss = build_state_space(ClockDynamics(m=0.9, sigma_u_sq=1e-40, tau=1.0))
    belief = GaussianBelief(mean=np.array([1e-6, 2e-6]), cov=np.eye(2) * 1e-30)
    out = gsf_predict(belief, ss)
    assert np.allclose(out.mean, ss.A @ [1e-6, 2e-6], rtol=1e-15, atol=0.0)
    assert np.max(out.cov) < 1e-29


def test_predict_identity_dynamics():
    ss = build_state_space(ClockDynamics(m=1.0, sigma_u_sq=1e-12, tau=1.0))
    out = gsf_predict(GaussianBelief(np.array([1e-6, 0.0]), np.eye(2) * 1e-12), ss)
    assert np.allclose(out.mean, [1e-6, 1e-6], rtol=1e-15, atol=0.0)


def test_predict_reference_step(ss):
    belief = study_prior()
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
    belief = study_prior()
    z = np.array([2e-6, 3e-6])
    res = gsf_update(belief, z, noise, ss)
    xn, Pn = _manual_kf_update(belief.mean, belief.cov, z, ss.H, noise.point_covariances[0])
    assert np.allclose(res.belief.mean, xn, rtol=1e-12, atol=0.0)
    assert np.allclose(res.belief.cov, Pn, rtol=1e-12, atol=0.0)


def test_update_identical_components_degenerate(ss):
    belief = study_prior()
    z = np.array([2e-6, 3e-6])
    one = gsf_update(belief, z, MixtureNoiseModel.from_point_estimates([1.0], [5e-6]), ss)
    two = gsf_update(belief, z, MixtureNoiseModel.from_point_estimates([0.5, 0.5], [5e-6, 5e-6]), ss)
    assert np.allclose(one.belief.mean, two.belief.mean, rtol=1e-12, atol=0.0)
    assert np.allclose(one.belief.cov, two.belief.cov, rtol=1e-12, atol=0.0)
    assert np.allclose(two.responsibilities, [0.5, 0.5], atol=1e-12)


def test_update_underflow_fallback(ss):
    noise = MixtureNoiseModel.from_point_estimates([0.5, 0.5], [1e-6, 2e-6])
    belief = study_prior()
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
    belief = study_prior()
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
    belief = study_prior()
    z = np.array([2e-6, -1e-6])
    out = vb_refine(noise, z, belief, ss, VbSettings())
    assert out.point_weights[0] == pytest.approx(0.5, abs=1e-12)
    assert np.allclose(out.iw_scale[0], out.iw_scale[1], atol=0.0)


def test_vb_dof_clamped_mean(ss):
    # the shipped init puts two dofs at the existence boundary; the mean clamps
    noise = study_noise()
    assert noise.dof_clamped
    covs = noise.point_covariances
    assert np.allclose(covs[0], np.eye(2) * 1e-7, atol=0.0)
    assert np.allclose(covs[1], np.eye(2) * 2e-7, atol=0.0)


def test_dof_clamped_reads_the_dofs_of_a_directly_built_model():
    # the flag reports the clamp the point covariances apply, a dof below
    # MIN_IW_DOF = 4 read as 4, however the model was built
    scale = np.array([np.eye(2), np.eye(2)]) * 1e-7
    assert MixtureNoiseModel(np.ones(2), np.array([3.0, 5.0]), scale).dof_clamped
    noise = MixtureNoiseModel(np.ones(2), np.array([3.5, 5.0]), scale)
    assert noise.dof_clamped and np.array_equal(noise.point_covariances[0], scale[0])
    assert not MixtureNoiseModel(np.ones(2), np.array([4.0, 5.0]), scale).dof_clamped


@pytest.mark.slow
def test_vb_recovers_mixture_variance():
    # stationary mixture, 500 periods; seed-averaged recovered covariance
    # within 25% of the true mixture variance
    ss = build_state_space(replace(STUDY.dynamics, sigma_u_sq=1e-16))
    cfg = _stationary_cfg(500, (5e-6, 3e-6, 5e-6), (0.4, 0.3, 0.3), process_noise_sq=1e-16)
    true_var = float(np.sum(np.array([0.4, 0.3, 0.3]) * np.array([5e-6, 3e-6, 5e-6]) ** 2))
    acc = []
    for seed in range(6):
        z = run_measurements(generate_scenario(cfg, [np.random.default_rng(100 + seed)]))[0]
        filt = GsfVbFilter(ss, study_noise(), study_prior(), vb=VbSettings())
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
    offsets = np.cumsum(np.append(delta, np.full(39, theta)))
    z = build_measurement(exchange(offsets, link, 0.0, 0.0, np.arange(40), 1.0), link.d)
    ss_rw = build_state_space(ClockDynamics(m=1.0, sigma_u_sq=1e-18, tau=1.0))
    filt = GsfVbFilter(
        ss_rw,
        MixtureNoiseModel.from_point_estimates([1.0], [1e-6]),
        GaussianBelief(np.array([theta, delta]), np.diag([1e-12, 1e-12])),
        vb=None,
    )
    for k in range(1, 40):
        skew, offset = filt.step(z[k]).belief.mean
        assert skew == pytest.approx(theta, rel=1e-9, abs=0.0)
        assert offset == pytest.approx(delta + k * theta, rel=1e-9, abs=0.0)


@pytest.mark.slow
def test_step_skew_estimator_bias_small(ss):
    # stationary mixture, 200 paired runs: skew bias under 0.2x RMSE per period
    cfg = _stationary_cfg(75, (5e-6, 3e-6, 5e-6), (0.4, 0.3, 0.3))
    n = 200
    skew_true, z = _batch_runs(cfg, [5000 + r for r in range(n)])
    filt = GsfVbFilter(ss, study_noise(n), study_prior(n), vb=VbSettings())
    errs = np.empty((n, 75))
    errs[:, 0] = 3e-7 - skew_true[:, 0]
    for k in range(1, 75):
        res = filt.step(z[:, k - 1])
        errs[:, k] = res.belief.mean[:, 0] - skew_true[:, k]
    bias = errs.mean(axis=0)
    rmse = np.sqrt((errs**2).mean(axis=0))
    assert np.all(np.abs(bias[30:]) < 0.2 * rmse[30:])


def test_update_keeps_its_belief_when_the_skew_is_conditioned(ss):
    # the filter steps on packed rows; feeding a skew back replaces the
    # filter's skew row and leaves the update it returned as it was
    filt = GsfVbFilter(ss, MixtureNoiseModel.from_point_estimates([1.0], [5e-6]), study_prior(), vb=VbSettings())
    res = filt.step(np.zeros(2))
    mean, cov = res.belief.mean, res.belief.cov
    filt.condition_on_skew(1.0)
    assert np.array_equal(res.belief.mean, mean) and np.array_equal(res.belief.cov, cov)
    assert filt.belief.mean.tolist() == [1.0, mean[1]] and np.array_equal(filt.belief.cov, cov)


@pytest.mark.parametrize(
    "build, args",
    [
        (GaussianBelief, (STUDY.netcomm_init.x0, np.diag(STUDY.netcomm_init.p0_diag))),
        (MixtureNoiseModel, ([1.0, 5.0], [4.0, 3.0], np.array([np.eye(2), [[2.0, 0.5], [0.5, 1.0]]]) * 1e-7)),
        (MixtureNoiseModel.from_point_estimates, ([0.25, 0.75], [1e-6, 3e-6])),
        (isotropic_mixture_model, (STUDY.netcomm_init.chi0, STUDY.netcomm_init.dof0, STUDY.netcomm_init.scale0)),
    ],
)
def test_runs_argument_repeats_the_unbatched_input(build, args):
    # runs=n gives the rows that inputs repeated along a new leading run
    # axis give, bit for bit
    for n in (1, 3):
        rows = build(*args, runs=n).rows
        expected = build(*(_per_run(np.asarray(x, dtype=float), n) for x in args)).rows
        assert rows.shape == expected.shape and rows.shape[1] == n
        assert rows.tobytes() == expected.tobytes()


def test_belief_rejects_a_covariance_that_is_asymmetric_or_indefinite():
    # the belief keeps the upper off-diagonal entry only, so the covariance
    # must be symmetric; [[1, 5], [5, 1]] (eigenvalues -4 and 6) has a
    # positive diagonal and is no covariance either; one bad run of three
    # is enough
    for cov, message in (([[1.0, 0.5], [0.4, 1.0]], "symmetric"), ([[1.0, 5.0], [5.0, 1.0]], "indefinite"),
                         ([[0.0, 0.0], [0.0, 1.0]], "diagonal")):
        batch = np.stack([np.eye(2), np.eye(2), cov]) * 1e-12
        with pytest.raises(ValueError, match=message):
            GaussianBelief(np.zeros((3, 2)), batch)
    # a NaN or infinite entry of the covariance or of the mean is refused
    # too, as the noise model and the Kalman baseline refuse theirs
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            GaussianBelief(np.zeros((3, 2)), np.stack([np.eye(2), np.eye(2), [[bad, 0.0], [0.0, 1.0]]]) * 1e-12)
        with pytest.raises(ValueError, match="finite"):
            GaussianBelief(np.zeros((3, 2)), np.stack([np.eye(2), np.eye(2), [[1.0, bad], [bad, 1.0]]]) * 1e-12)
        with pytest.raises(ValueError, match="finite"):
            GaussianBelief([[0.0, 0.0], [0.0, 0.0], [bad, 0.0]], np.stack([np.eye(2)] * 3) * 1e-12)
        with pytest.raises(ValueError, match="finite"):
            GaussianBelief([0.0, -bad], np.eye(2) * 1e-12)
    # a singular covariance is positive semi-definite: a belief
    GaussianBelief([0.0, 0.0], np.ones((2, 2)) * 1e-12)


def test_noise_model_rejects_a_scale_that_is_not_symmetric_positive_definite():
    # the model keeps the upper off-diagonal entry only, as the Kalman
    # baseline's R does; a singular, indefinite or NaN scale is refused too
    for v in ([[1.0, 0.5], [0.1, 1.0]], [[1.0, 5.0], [5.0, 1.0]], [[1.0, 1.0], [1.0, 1.0]],
              [[0.0, 0.0], [0.0, 1.0]], [[np.nan, 0.0], [0.0, 1.0]]):
        scale = np.stack([np.eye(2), v]) * 1e-7
        with pytest.raises(ValueError, match="symmetric positive definite"):
            MixtureNoiseModel(np.ones(2), np.full(2, 5.0), scale)
    MixtureNoiseModel(np.ones(2), np.full(2, 5.0), np.stack([np.eye(2), NOISE_CORR]) * 1e-7)


def test_filter_rejects_run_shapes_that_differ():
    # an unbatched noise model beside a 3-run belief is named at construction,
    # not left to numpy's broadcast error in the first step
    # (caught as an AssertionError, not pytest.raises' Failed, so that the
    # mutation check that deletes the shape check sees it fail)
    ss = build_state_space(STUDY.dynamics)
    noise = MixtureNoiseModel.from_point_estimates([0.5, 0.5], [1e-6, 2e-6])
    try:
        GsfVbFilter(ss, noise, study_prior(3))
        message = None
    except ValueError as err:
        message = str(err)
    assert message == "the belief's run shape (3,) and the noise model's run shape () differ"
    GsfVbFilter(ss, MixtureNoiseModel.from_point_estimates([0.5, 0.5], [1e-6, 2e-6], runs=3), study_prior(3))


def test_kalman_shares_one_covariance_across_runs(ss):
    # the covariance recursion is the same for every run: one read-only
    # (2, 2) broadcast over the runs, and priors that differ raise
    kal = KalmanBaseline(ss, nominal_noise_cov(5e-6), study_prior(3))
    for belief in (kal.belief, kal.step(np.zeros((3, 2)))):
        assert belief.cov.shape == (3, 2, 2) and belief.cov.strides[0] == 0
        assert not belief.cov.flags.writeable
    priors = study_prior(3)
    cov = priors.cov.copy()
    cov[2, 1, 1] *= 2.0
    with pytest.raises(ValueError, match="prior covariances"):
        KalmanBaseline(ss, nominal_noise_cov(5e-6), GaussianBelief(priors.mean, cov))
    with pytest.raises(ValueError, match="2x2"):
        KalmanBaseline(ss, np.stack([nominal_noise_cov(5e-6)] * 3), priors)
    for empty in (GaussianBelief(np.empty((0, 2)), np.empty((0, 2, 2))), study_prior(0)):
        with pytest.raises(ValueError, match="at least one run"):
            KalmanBaseline(ss, nominal_noise_cov(5e-6), empty)


def test_kalman_rejects_a_fixed_noise_that_is_not_positive_definite(ss):
    # step reads R[0, 1] for both off-diagonal entries, so R must be
    # symmetric; the indefinite [[1, 2], [2, 1]] and a zero or NaN variance
    # are no covariance either
    priors = study_prior(3)
    for r in ([[1.0, 0.5], [0.4, 1.0]], [[1.0, 2.0], [2.0, 1.0]], [[0.0, 0.0], [0.0, 1.0]],
              [[-1.0, 0.0], [0.0, -1.0]], [[np.nan, 0.0], [0.0, 1.0]]):
        with pytest.raises(ValueError, match="symmetric positive definite"):
            KalmanBaseline(ss, np.array(r) * 1e-12, priors)
    KalmanBaseline(ss, np.diag([1e-12, 2e-12]), priors)


def test_kalman_misspecified_noise_still_unbiased(ss):
    cfg = _stationary_cfg(75, (5e-6,), (1.0,))
    n = 300
    skew_true, z = _batch_runs(cfg, [7000 + r for r in range(n)])
    kal = KalmanBaseline(ss, nominal_noise_cov(5e-5), study_prior(n))  # 10x true
    errs = np.empty((n, 74))
    for k in range(1, 75):
        res = kal.step(z[:, k - 1])
        errs[:, k - 1] = res.mean[:, 0] - skew_true[:, k]
    bias = errs[:, 30:].mean()
    rmse = np.sqrt((errs[:, 30:] ** 2).mean())
    assert abs(bias) < 0.2 * rmse
