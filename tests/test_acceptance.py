"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`. Monte-Carlo criteria use
200 runs (desk scale) where the shipped configs default to 1000.
"""
import json
import time

import numpy as np
import pytest

from tacd.bclb import OracleNoiseTruth, bclb_trajectory
from tacd.clock import build_state_space
from tacd.cli import main as cli_main
from tacd.config import load_config
from tacd.fusion import pareto_beta, thermal_variance
from tacd.netcomm import (
    GaussianBelief,
    GsfVbFilter,
    KalmanBaseline,
    MixtureNoiseModel,
    gsf_update,
    nominal_noise_cov,
)
from tacd.runner import bound_reduction, evaluate_rmse, fusion_study, run_case
from tacd.scenario import (
    LinkConfig,
    PdvProfile,
    RateSegment,
    ScenarioConfig,
    TruthOptions,
    generate_scenario,
    pdv_params_table,
)
from tacd.thermal import TempSkewModel, skew_from_temperature, thermal_bias

from conftest import (
    STUDY,
    config_path,
    constant_oracle,
    constant_thermal,
    information,
    matched_filter_window_mse,
    rmse_by_name,
    run_measurements,
    study_doc,
    study_prior,
    thermal_run,
    toy_trajectories,
)
import oracles
from oracles import closed_form_beta, golden_section_beta_vec, random_fusion_tuples

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
        model = TempSkewModel(kappa=float(kappa[i]), sigma_T_sq=float(s2[i]))
        ok &= abs(pareto_beta(float(eps[i]), thermal_variance(float(gap[i]), model), model, float(lam[i])) - beta[i]) < 1e-15
    _report(
        1,
        "pareto closed form vs golden section",
        ok,
        f"interior max |diff| {worst_int:.2e}, boundary {worst_bnd:.2e}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------- criterion 2

def test_criterion_2_thermal_statistics():
    t0 = time.time()
    model = TempSkewModel()
    rng = np.random.default_rng(102)

    # the bias at several operating points: antithetic pairs (xi, -xi) cancel
    # the term linear in xi, which would otherwise dominate the Monte-Carlo
    # error far from T0
    expected = thermal_bias(model)
    bias_ok = True
    details = []
    for t_true in (-10.0, 0.0, 25.0, 40.0):
        xi = rng.standard_normal(10**6) * np.sqrt(model.sigma_T_sq)
        reading = t_true + np.concatenate([xi, -xi])
        bias = float(np.mean(skew_from_temperature(reading, model) - skew_from_temperature(t_true, model)))
        bias_ok &= abs(bias - expected) < 0.01 * expected
        details.append(f"bias({t_true:g}C) {bias:.3e}/{expected:.3e}")

    mom_ok = True
    for t_op in (25.0, 31.0, 35.0):
        xi = rng.standard_normal(10**7) * np.sqrt(model.sigma_T_sq)
        err = model.kappa * (2.0 * (t_op - model.T0) * xi + xi**2)
        emp = float(np.mean(err**2))
        closed = thermal_variance(t_op - model.T0, model) + thermal_bias(model) ** 2
        mom_ok &= abs(emp - closed) < 0.05 * closed
        details.append(f"E[e^2]({t_op:g}C) {emp:.3e}/{closed:.3e}")
    elapsed = time.time() - t0
    _report(2, "thermal-phase statistics", bias_ok and mom_ok and elapsed < 30.0,
            "; ".join(details) + f", {elapsed:.1f}s")


# ---------------------------------------------------------------- criterion 3

def test_criterion_3_kalman_equivalence():
    dyn = STUDY.dynamics
    ss = build_state_space(dyn)
    horizon = 200
    cfg = ScenarioConfig(
        tau=1.0,
        horizon=horizon,
        link=LinkConfig(5e-6, 1e-6),
        pdv=PdvProfile(initial_stddevs=(5e-6,), initial_weights=(1.0,)),
        thermal=constant_thermal(horizon),
        temp_model=TempSkewModel(),
        truth=TruthOptions(initial_offset=1e-6, initial_skew_residual=3e-7,
                           process_noise_sq=dyn.sigma_u_sq, thermal_coupling=False),
        gm_coefficient=dyn.m,
    )
    data = generate_scenario(cfg, [np.random.default_rng(103)])
    belief = study_prior()
    gsf = GsfVbFilter(ss, MixtureNoiseModel.from_point_estimates([1.0], [5e-6]), belief, vb=None)
    kal = KalmanBaseline(ss, nominal_noise_cov(5e-6), belief)
    worst = 0.0
    for z in run_measurements(data)[0]:
        a, b = gsf.step(z).belief, kal.step(z)
        # relative to each entry of the textbook filter's mean and covariance
        for got, ref in ((a.mean, b.mean), (a.cov, b.cov)):
            worst = max(worst, float(np.max(np.abs(got - ref) / np.maximum(np.abs(ref), 1e-30))))
    _report(3, "single-component filter equals textbook Kalman", worst <= 1e-12,
            f"max per-period, per-entry relative difference {worst:.2e}")


# ---------------------------------------------------------------- criterion 4

def test_criterion_4_fisher_sanity(dyn):
    lam = np.array([5e-6])
    b = np.array([1.0])

    j = information(dyn, b, lam, 1.0 / 5e-6, 3000)[0][-1]
    j_ref = dyn.tau**2 / lam[0] ** 2 + 1.0 / (dyn.sigma_u_sq + dyn.m**2 / j)
    fixed_ok = abs(j - j_ref) / j_ref <= 1e-10

    # alpha = 1 gives the linear bound bit for bit, on one component and on
    # the study's non-stationary three-component mixture
    weights, stddevs = pdv_params_table(STUDY.scenario.pdv, 75)
    oracle = OracleNoiseTruth(weights=weights, stddevs=stddevs)
    exact_ok = True
    for truth, p0 in ((constant_oracle(b, lam, 51), 1.0 / 3e10), (oracle, 5e-6)):
        bl, bf = bclb_trajectory(truth, dyn, 1.0, p0)
        exact_ok &= bool(np.array_equal(bf, bl))

    rng = np.random.default_rng(104)
    dom_ok = True
    for alpha in rng.uniform(0.05, 0.999, 20):
        bl, bf = bclb_trajectory(oracle, dyn, alpha, 5e-6)
        dom_ok &= bool(np.all(bf[1:] <= bl[1:] * (1 + 1e-12)) and np.all(bf > 0) and np.all(bl > 0))
    _report(4, "Fisher recursion sanity", fixed_ok and exact_ok and dom_ok,
            f"fixed point rel err {(abs(j - j_ref) / j_ref):.2e}, alpha=1 exact {exact_ok}, dominance {dom_ok}")


# ---------------------------------------------------------------- criterion 5

@pytest.mark.acceptance
def test_criterion_5_fusion_study():
    t0 = time.time()
    cfg = STUDY.with_overrides(runs=MC_RUNS)
    table, t = fusion_study(cfg)
    elapsed = time.time() - t0
    network, thermal, fused = evaluate_rmse(t, cfg.steady_window, ("linear-only", "thermal-only", "tacd"))["skew_rmse"]
    reduction = bound_reduction(table["bclb_single"], table["bclb_fusion"], cfg.steady_window)
    red_ok = 0.45 <= reduction <= 0.85
    rmse_ok = fused <= 1.05 * min(network, thermal)
    _report(
        5,
        "fusion study",
        red_ok and rmse_ok and elapsed < 300.0,
        f"bound reduction {reduction:.3f} in [0.45, 0.85]; "
        f"fused {fused:.3e} vs min(single) {min(network, thermal):.3e}; {elapsed:.0f}s",
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
        cfg = load_config(config_path(case)).with_overrides(runs=MC_RUNS)
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

def test_criterion_7_statistical_bound(dyn):
    lam, runs, horizon = 5e-6, 1000, 150
    window = matched_filter_window_mse(dyn, lam, runs, horizon, seed=107)
    bound = bclb_trajectory(constant_oracle([1.0], [lam], horizon), dyn, None, 5e-6)[0][-1]
    mse = float(np.mean(window))
    stderr = max(float(np.std(window, ddof=1) / np.sqrt(len(window))), mse * np.sqrt(2.0 / runs))
    ok = mse >= bound - 3 * stderr
    _report(7, "empirical MSE respects the bound", ok,
            f"MSE {mse:.3e} vs bound {bound:.3e} (3 SE = {3 * stderr:.2e})")


# ---------------------------------------------------------------- criterion 8

@pytest.mark.acceptance
def test_criterion_8_determinism(tmp_path):
    doc = study_doc()
    doc["runs"] = 4
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps(doc))
    digests = {}
    ok = True
    for sub in ("simulate", "evaluate", "fusion-study", "bclb"):
        blobs = []
        for variant in ("a", "b"):
            out = tmp_path / f"{sub}_{variant}"
            rc = cli_main([sub, "--config", str(cfgp), "--out", str(out)])
            assert rc == 0
            blobs.append(b"".join(p.read_bytes() for p in sorted(out.glob("*.csv"))))
        same = all(blob == blobs[0] for blob in blobs)
        ok &= same
        digests[sub] = same
    _report(8, "byte-identical CSVs across reruns", ok, str(digests))


# ---------------------------------------------------------------- criterion 9

def test_criterion_9_property_suites():
    ss = build_state_space(STUDY.dynamics)
    rng = np.random.default_rng(109)
    n_cases = 1000

    # weight simplex under random schedules of one to three incremental segments
    simplex_ok = True
    for _ in range(n_cases):
        n = int(rng.integers(2, 5))
        segments, start = [], 1
        for _ in range(rng.integers(1, 4)):
            end = start + int(rng.integers(1, 10))
            segments.append(RateSegment(start, end, tuple(rng.normal(0, 2e-8, n)), tuple(rng.normal(0, 1e-4, n - 1))))
            start = end + 1
        prof = PdvProfile(
            initial_stddevs=tuple(rng.uniform(1e-6, 1e-5, n)),
            initial_weights=tuple(rng.dirichlet(np.ones(n))),
            rate_schedule=tuple(segments),
        )
        w, s = pdv_params_table(prof, start)
        simplex_ok &= bool(np.all(np.abs(w.sum(axis=1) - 1.0) <= 1e-12))
        simplex_ok &= bool(np.all((w >= 0) & (w <= 1)) and np.all(s >= prof.stddev_floor))

    # SPD, symmetric posterior covariance, responsibilities summing to one,
    # and the moments of oracles.gsf_update, the np.linalg reference
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
        cov = res.belief.cov
        spd_ok &= bool(np.linalg.eigvalsh(cov)[0] > 0 and np.allclose(cov, cov.T, atol=0.0))
        spd_ok &= bool(abs(res.responsibilities.sum() - 1.0) < 1e-12)
        ref = oracles.gsf_update(
            oracles.GaussianBelief(belief.mean, belief.cov), z,
            oracles.MixtureNoiseModel(noise.dirichlet_concentration, noise.iw_dof, noise.iw_scale), ss,
        )
        w_ref, mean_ref, cov_ref = ref.responsibilities, ref.belief.mean, ref.belief.cov
        # absolute tolerance scaled to the state/covariance magnitude: a
        # zero-crossing mean entry has no meaningful elementwise relative error
        match_ok &= bool(
            np.allclose(res.responsibilities, w_ref, atol=1e-12)
            and np.allclose(res.belief.mean, mean_ref, rtol=1e-12,
                            atol=1e-12 * np.linalg.norm(mean_ref))
            and np.allclose(cov, cov_ref, rtol=1e-12, atol=1e-12 * np.abs(cov_ref).max())
        )

    # cooling monotonicity
    cool_ok = True
    for _ in range(n_cases):
        t_ext = rng.uniform(-20, 60)
        t = t_ext + rng.uniform(0.5, 30) * rng.choice([-1.0, 1.0])
        c = rng.uniform(0.5, 50)
        gaps = np.abs(thermal_run(t_ext, t, c, 6).temp_osc[0] - t_ext)
        cool_ok &= bool(np.all(gaps[1:] < gaps[:-1]))
        # each period keeps the share exp(-1/c) of the gap
        cool_ok &= bool(np.allclose(gaps[1:] / gaps[:-1], np.exp(-1.0 / c), rtol=1e-6, atol=0.0))

    # RMSE aggregation, skew and offset, equals brute-force recomputation
    rmse_ok = True
    for _ in range(n_cases):
        horizon = int(rng.integers(3, 21))
        runs = int(rng.integers(1, 5))
        window = int(rng.integers(1, horizon + 1))
        truth = rng.normal(0, 1e-6, (2, runs, horizon))
        est = truth + rng.normal(0, 1e-7, (2, runs, horizon))
        trajs = toy_trajectories(truth[0], truth[1], {"e": {"skew": est[0], "offset": est[1]}})
        got = rmse_by_name(evaluate_rmse(trajs, window))["e"]
        for q in (0, 1):
            acc, cnt = 0.0, 0
            for r in range(runs):
                for k in range(horizon - window, horizon):
                    acc += (est[q, r, k] - truth[q, r, k]) ** 2
                    cnt += 1
            rmse_ok &= abs(got[q] - np.sqrt(acc / cnt)) <= 1e-15 * max(got[q], 1e-30)

    ok = simplex_ok and spd_ok and match_ok and cool_ok and rmse_ok
    _report(
        9, "property suites",
        ok,
        f"simplex {simplex_ok}, SPD {spd_ok}, oracle update {match_ok}, "
        f"cooling {cool_ok}, RMSE {rmse_ok} (1000 instances each)",
    )
