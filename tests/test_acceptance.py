"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`. Monte-Carlo criteria use
200 runs (desk scale) where the shipped configs default to 1000.
"""
import json
import time

import numpy as np
import pytest

from tacd.bclb import OracleNoiseTruth, bclb_trajectory
from tacd.cli import main as cli_main
from tacd.clock import ClockDynamics, build_state_space
from tacd.config import load_config, parse_config
from tacd.fusion import PhaseErrorStats, pareto_beta
from tacd.netcomm import (
    GaussianBelief,
    GsfVbFilter,
    KalmanBaseline,
    MixtureNoiseModel,
    gsf_update,
    nominal_noise_cov,
)
from tacd.runner import evaluate_rmse, fusion_study, run_case
from tacd.scenario import (
    LinkConfig,
    PdvProfile,
    RateSegment,
    ScenarioConfig,
    TruthOptions,
    generate_scenario,
    pdv_params_table,
)
from tacd.thermal import TempSkewModel

from conftest import (
    M_GM,
    SIGMA_U_SQ,
    constant_oracle,
    constant_thermal,
    information,
    rmse_by_name,
    run_measurements,
    thermal_run,
    toy_trajectories,
)
from oracles import (
    brute_force_mixture_update,
    closed_form_beta,
    fusion_cost_vec,
    golden_section_beta_vec,
    random_fusion_tuples,
)

MC_RUNS = 200


def _report(num: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {num} [{name}]: {status}  {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


# ---------------------------------------------------------------- criterion 1

def test_criterion_1_pareto_closed_form():
    t0 = time.time()
    rng = np.random.default_rng(101)
    n = 10**4
    eps, kappa, s2, gap, lam = random_fusion_tuples(n, rng)
    beta = closed_form_beta(eps, kappa, s2, gap, lam)
    beta_num = golden_section_beta_vec(eps, kappa, s2, gap, lam)
    interior = (beta > 1e-6) & (beta < 1.0 - 1e-6)
    worst_int = float(np.max(np.abs(beta[interior] - beta_num[interior])))
    worst_bnd = float(np.max(np.abs(beta[~interior] - beta_num[~interior]), initial=0.0))
    # boundary optima: the numeric minimizer lands on the clamped value
    elapsed = time.time() - t0
    ok = worst_int < 1e-9 and worst_bnd < 1e-6 and elapsed < 10.0
    # the library op agrees with the vectorized closed form bit-for-bit
    for i in rng.integers(0, n, 100):
        model = TempSkewModel(kappa=float(kappa[i]), T0=25.0, theta0=0.0, sigma_T_sq=float(s2[i]))
        stats = PhaseErrorStats(linear_variance=float(eps[i]), temp_gap=float(gap[i]))
        ok &= abs(pareto_beta(stats, model, float(lam[i])).beta - beta[i]) < 1e-15
    _report(
        1,
        "pareto closed form vs golden section",
        ok,
        f"interior max |diff| {worst_int:.2e}, boundary {worst_bnd:.2e}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------- criterion 2

def test_criterion_2_thermal_statistics():
    t0 = time.time()
    model = TempSkewModel(kappa=4e-8, T0=25.0, theta0=0.0, sigma_T_sq=0.1)
    rng = np.random.default_rng(102)

    xi = rng.standard_normal(10**6) * np.sqrt(model.sigma_T_sq)
    t_true = 25.0
    bias = np.mean(model.kappa * (2.0 * (t_true - model.T0) * xi + xi**2))
    bias_ok = abs(bias - 4e-9) < 0.1 * 4e-9

    mom_ok = True
    details = [f"bias {bias:.3e} vs 4e-9"]
    for t_op in (25.0, 31.0, 35.0):
        xi = rng.standard_normal(10**7) * np.sqrt(model.sigma_T_sq)
        err = model.kappa * (2.0 * (t_op - model.T0) * xi + xi**2)
        emp = float(np.mean(err**2))
        closed = model.kappa**2 * (4 * model.sigma_T_sq * (t_op - 25.0) ** 2 + 3 * model.sigma_T_sq**2)
        mom_ok &= abs(emp - closed) < 0.05 * closed
        details.append(f"E[e^2]({t_op:g}C) {emp:.3e}/{closed:.3e}")
    elapsed = time.time() - t0
    _report(2, "thermal-phase statistics", bias_ok and mom_ok and elapsed < 30.0,
            "; ".join(details) + f", {elapsed:.1f}s")


# ---------------------------------------------------------------- criterion 3

def test_criterion_3_kalman_equivalence():
    horizon = 200
    cfg = ScenarioConfig(
        tau=1.0,
        horizon=horizon,
        link=LinkConfig(5e-6, 1e-6),
        pdv=PdvProfile(initial_stddevs=(5e-6,), initial_weights=(1.0,)),
        thermal=constant_thermal(horizon),
        temp_model=TempSkewModel(kappa=4e-8, T0=25.0, theta0=0.0, sigma_T_sq=0.1),
        truth=TruthOptions(initial_offset=1e-6, initial_skew_residual=3e-7,
                           process_noise_sq=SIGMA_U_SQ, thermal_coupling=False),
        gm_coefficient=M_GM,
    )
    data = generate_scenario(cfg, [np.random.default_rng(103)])
    ss = build_state_space(ClockDynamics(m=M_GM, sigma_u_sq=SIGMA_U_SQ, tau=1.0))
    belief = GaussianBelief(np.array([3e-7, 3.5e-6]), np.diag([5e-6, 5e-6]))
    gsf = GsfVbFilter(ss, MixtureNoiseModel.from_point_estimates([1.0], [5e-6]), belief, vb=None)
    kal = KalmanBaseline(ss, nominal_noise_cov(5e-6), belief)
    worst = 0.0
    for z in run_measurements(data)[0]:
        a = gsf.step(z)
        b = kal.step(z)
        worst = max(
            worst,
            abs(a.skew - b.skew) / max(abs(b.skew), 1e-30),
            abs(a.offset - b.offset) / max(abs(b.offset), 1e-30),
            float(np.max(np.abs(a.belief.cov - b.belief.cov)) / np.max(np.abs(b.belief.cov))),
        )
    _report(3, "single-component filter equals textbook Kalman", worst <= 1e-12,
            f"max per-period relative difference {worst:.2e}")


# ---------------------------------------------------------------- criterion 4

def test_criterion_4_fisher_sanity():
    dyn = ClockDynamics(m=M_GM, sigma_u_sq=SIGMA_U_SQ, tau=1.0)
    lam = np.array([5e-6])
    b = np.array([1.0])

    j = information(dyn, b, lam, 1.0 / 5e-6, 3000)[0][-1]
    j_ref = dyn.tau**2 / lam[0] ** 2 + 1.0 / (dyn.sigma_u_sq + dyn.m**2 / j)
    fixed_ok = abs(j - j_ref) / j_ref <= 1e-10

    bl, bf = bclb_trajectory(constant_oracle(b, lam, 51), dyn, 1.0, 1.0 / 3e10)
    exact_ok = bool(np.array_equal(bf, bl))

    from conftest import study_pdv_profile

    weights, stddevs = pdv_params_table(study_pdv_profile(), 75)
    oracle = OracleNoiseTruth(weights=weights, stddevs=stddevs)
    rng = np.random.default_rng(104)
    dom_ok = True
    for alpha in rng.uniform(0.05, 0.999, 10):
        bl, bf = bclb_trajectory(oracle, dyn, alpha, 5e-6)
        dom_ok &= bool(np.all(bf[1:] <= bl[1:] * (1 + 1e-12)))
    _report(4, "Fisher recursion sanity", fixed_ok and exact_ok and dom_ok,
            f"fixed point rel err {(abs(j - j_ref) / j_ref):.2e}, alpha=1 exact {exact_ok}, dominance {dom_ok}")


# ---------------------------------------------------------------- criterion 5

@pytest.mark.acceptance
def test_criterion_5_fusion_study():
    t0 = time.time()
    cfg = load_config("configs/fusion_study.json").with_overrides(runs=MC_RUNS)
    result, _ = fusion_study(cfg)
    elapsed = time.time() - t0
    red_ok = 0.45 <= result.steady_bclb_reduction <= 0.85
    rmse_ok = result.steady_rmse_fusion <= 1.05 * min(
        result.steady_rmse_single1, result.steady_rmse_single2
    )
    _report(
        5,
        "fusion study",
        red_ok and rmse_ok and elapsed < 300.0,
        f"bound reduction {result.steady_bclb_reduction:.3f} in [0.45, 0.85]; "
        f"fused {result.steady_rmse_fusion:.3e} vs min(single) "
        f"{min(result.steady_rmse_single1, result.steady_rmse_single2):.3e}; {elapsed:.0f}s",
    )


# ---------------------------------------------------------------- criterion 6

REFERENCE_RMSE = {  # recorded comparison targets, informational only
    "tacd": {"skew": (3.61e-7, 9.61e-7, 1.021e-6), "offset": (1.53e-6, 2.50e-6, 2.87e-6)},
    "gptp": {"skew": (2.231e-6, 7.862e-6, 8.592e-6), "offset": (1.803e-5, 2.258e-5, 2.964e-5)},
}


@pytest.mark.acceptance
def test_criterion_6_comparative_ordering():
    t0 = time.time()
    details = []
    ok = True
    for idx, case in enumerate(("case1", "case2", "case3")):
        cfg = load_config(f"configs/{case}.json").with_overrides(runs=MC_RUNS)
        summary = rmse_by_name(evaluate_rmse(run_case(cfg), cfg.steady_window))
        tacd, kal, gptp = summary["tacd"], summary["kalman"], summary["gptp"]
        thermal = summary["thermal-only"]
        order_ok = tacd[1] < kal[1] < gptp[1]
        skew_ok = True if case == "case1" else tacd[0] <= 1.5 * thermal[0]
        ok &= order_ok and skew_ok
        details.append(
            f"{case}: offsets {tacd[1]:.2e}<{kal[1]:.2e}<{gptp[1]:.2e} ({order_ok}), "
            f"skew ratio vs thermal {tacd[0] / thermal[0]:.2f} ({skew_ok})"
        )
        # reference targets from the synchronization literature, not gated
        for est in ("tacd", "gptp"):
            ref_s = REFERENCE_RMSE[est]["skew"][idx]
            ref_o = REFERENCE_RMSE[est]["offset"][idx]
            print(
                f"  reference [{case}/{est}] skew {summary[est][0]:.2e} vs {ref_s:.2e} "
                f"({summary[est][0] / ref_s:+.0%}), offset {summary[est][1]:.2e} vs {ref_o:.2e} "
                f"({summary[est][1] / ref_o:+.0%}) [informational]"
            )
    elapsed = time.time() - t0
    _report(6, "comparative case ordering", ok and elapsed < 600.0,
            "; ".join(details) + f"; {elapsed:.0f}s")


# ---------------------------------------------------------------- criterion 7

def test_criterion_7_statistical_bound():
    dyn = ClockDynamics(m=M_GM, sigma_u_sq=SIGMA_U_SQ, tau=1.0)
    lam = 5e-6
    runs, horizon = 1000, 150
    rng = np.random.default_rng(107)
    theta = np.full(runs, 3e-7)
    est = np.full(runs, 3e-7)
    p = 5e-6
    window = []
    for k in range(1, horizon):
        theta = dyn.m * theta + rng.standard_normal(runs) * np.sqrt(dyn.sigma_u_sq)
        z = dyn.tau * theta + rng.standard_normal(runs) * lam
        p_pred = dyn.m**2 * p + dyn.sigma_u_sq
        s = dyn.tau**2 * p_pred + lam**2
        gain = p_pred * dyn.tau / s
        est = dyn.m * est + gain * (z - dyn.tau * dyn.m * est)
        p = (1.0 - gain * dyn.tau) * p_pred
        if k >= horizon - 10:
            window.append(np.mean((est - theta) ** 2))
    bound = bclb_trajectory(constant_oracle([1.0], [lam], horizon), dyn, None, 5e-6)[0][-1]
    mse = float(np.mean(window))
    stderr = max(float(np.std(window, ddof=1) / np.sqrt(len(window))), mse * np.sqrt(2.0 / runs))
    ok = mse >= bound - 3 * stderr
    _report(7, "empirical MSE respects the bound", ok,
            f"MSE {mse:.3e} vs bound {bound:.3e} (3 SE = {3 * stderr:.2e})")


# ---------------------------------------------------------------- criterion 8

@pytest.mark.acceptance
def test_criterion_8_determinism(tmp_path):
    doc = json.loads(open("configs/fusion_study.json", encoding="utf-8").read())
    doc["runs"] = 4
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps(doc))
    digests = {}
    ok = True
    for sub in ("simulate", "evaluate", "fusion-study", "bclb"):
        blobs = []
        # bclb runs no Monte-Carlo runs, so it has no workers to split them over
        variants = (("a", []), ("b", [])) + ((("w", ["--workers", "3"]),) if sub != "bclb" else ())
        for variant, extra in variants:
            out = tmp_path / f"{sub}_{variant}"
            rc = cli_main([sub, "--config", str(cfgp), "--out", str(out)] + extra)
            assert rc == 0
            blobs.append(b"".join(p.read_bytes() for p in sorted(out.glob("*.csv"))))
        same = all(blob == blobs[0] for blob in blobs)
        ok &= same
        digests[sub] = same
    _report(8, "byte-identical CSVs across reruns and worker counts", ok, str(digests))


# ---------------------------------------------------------------- criterion 9

def test_criterion_9_property_suites(ss):
    rng = np.random.default_rng(109)
    n_cases = 1000

    # weight simplex under random incremental schedules
    simplex_ok = True
    for _ in range(n_cases):
        n = int(rng.integers(2, 5))
        prof = PdvProfile(
            initial_stddevs=tuple(rng.uniform(1e-6, 1e-5, n)),
            initial_weights=tuple(rng.dirichlet(np.ones(n))),
            rate_schedule=(
                RateSegment(1, 12, tuple(rng.normal(0, 2e-8, n)), tuple(rng.normal(0, 1e-4, n - 1))),
            ),
        )
        w, s = pdv_params_table(prof, 13)
        simplex_ok &= bool(np.all(np.abs(w.sum(axis=1) - 1.0) <= 1e-12))
        simplex_ok &= bool(np.all((w >= 0) & (w <= 1)) and np.all(s >= prof.stddev_floor))

    # SPD posterior covariance and brute-force moment matching
    spd_ok, match_ok = True, True
    for _ in range(n_cases):
        d = rng.uniform(1e-13, 1e-9, 2)
        off = rng.uniform(-0.9, 0.9) * np.sqrt(d.prod())
        belief = GaussianBelief(rng.normal(0, 1e-5, 2), np.array([[d[0], off], [off, d[1]]]))
        nc = int(rng.integers(1, 4))
        wts = rng.dirichlet(np.ones(nc))
        noise = MixtureNoiseModel.from_point_estimates(wts, rng.uniform(5e-7, 2e-5, nc))
        z = np.array(ss.H @ belief.mean + rng.normal(0, 1e-5, 2))
        res = gsf_update(belief, z, noise, ss)
        spd_ok &= bool(np.linalg.eigvalsh(res.belief.cov)[0] > 0)
        w_ref, mean_ref, cov_ref = brute_force_mixture_update(
            belief.mean, belief.cov, z, ss.H, noise.point_weights, noise.point_covariances
        )
        # absolute tolerance scaled to the state/covariance magnitude: a
        # zero-crossing mean entry has no meaningful elementwise relative error
        match_ok &= bool(
            np.allclose(res.responsibilities, w_ref, atol=1e-12)
            and np.allclose(res.belief.mean, mean_ref, rtol=1e-12,
                            atol=1e-12 * np.linalg.norm(mean_ref))
            and np.allclose(res.belief.cov, cov_ref, rtol=1e-12,
                            atol=1e-12 * np.abs(cov_ref).max())
        )

    # cooling monotonicity
    cool_ok = True
    for _ in range(n_cases):
        t_ext = rng.uniform(-20, 60)
        t = t_ext + rng.uniform(0.5, 30) * rng.choice([-1.0, 1.0])
        c = rng.uniform(0.5, 50)
        gaps = np.abs(thermal_run(t_ext, t, c, 4).temp_osc - t_ext)
        cool_ok &= bool(np.all(gaps[1:] < gaps[:-1]))
        # each period keeps the share exp(-1/c) of the gap
        cool_ok &= bool(np.allclose(gaps[1:] / gaps[:-1], np.exp(-1.0 / c), rtol=1e-6, atol=0.0))

    # RMSE aggregation equals brute-force recomputation
    rmse_ok = True
    for _ in range(n_cases):
        horizon = int(rng.integers(3, 12))
        runs = int(rng.integers(1, 4))
        window = int(rng.integers(1, horizon + 1))
        truth, est = np.empty((runs, horizon)), np.empty((runs, horizon))
        for r in range(runs):
            truth[r] = rng.normal(0, 1e-6, horizon)
            est[r] = truth[r] + rng.normal(0, 1e-7, horizon)
        trajs = toy_trajectories(truth, truth, {"e": est}, {"e": est})
        got = rmse_by_name(evaluate_rmse(trajs, window))["e"][0]
        acc, cnt = 0.0, 0
        for r in range(runs):
            for k in range(horizon - window, horizon):
                acc += (trajs.est_skew["e"][r, k] - trajs.theta_true[r, k]) ** 2
                cnt += 1
        rmse_ok &= abs(got - np.sqrt(acc / cnt)) <= 1e-15 * max(got, 1e-30) + 0.0

    ok = simplex_ok and spd_ok and match_ok and cool_ok and rmse_ok
    _report(
        9, "property suites",
        ok,
        f"simplex {simplex_ok}, SPD {spd_ok}, moment-match {match_ok}, "
        f"cooling {cool_ok}, RMSE {rmse_ok} (1000 instances each)",
    )
