"""The batched estimators against the scalar oracle, and batch-split invariance."""
import json

import numpy as np
import pytest

import oracles
from tacd.bclb import OracleNoiseTruth
from tacd.cli import main as cli_main
from tacd.clock import build_state_space
from tacd.config import load_config
from tacd.netcomm import (
    GaussianBelief,
    GsfVbFilter,
    MixtureNoiseModel,
    VbSettings,
    gsf_update,
    isotropic_mixture_model,
    vb_refine,
)
from tacd.report import load_csv_columns
from tacd.runner import FUSION_BOUND_ALPHA, Trajectories, case_bounds, simulate_run
from tacd.scenario import generate_scenario, pdv_params_table

from conftest import run_measurements

SHIPPED = ("case1", "case2", "case3", "fusion_study")


def _measurements(cfg, seeds) -> np.ndarray:
    return run_measurements(generate_scenario(cfg.scenario, [np.random.default_rng(seed) for seed in seeds]))


def _rel(a, b) -> float:
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


@pytest.mark.parametrize("case", SHIPPED)
def test_batched_filter_matches_scalar_oracle(case):
    cfg = load_config(f"configs/{case}.json")
    init = cfg.netcomm_init
    ss = build_state_space(cfg.dynamics)
    isotropic = isotropic_mixture_model(init.chi0, init.dof0, init.scale0)
    n = 5
    z = _measurements(cfg, range(100, 100 + n))
    x0 = np.tile(init.x0, (n, 1))
    p0 = np.tile(np.diag(init.p0_diag), (n, 1, 1))
    chi = np.tile(isotropic.dirichlet_concentration, (n, 1))
    dof = np.tile(isotropic.iw_dof, (n, 1))
    scale = np.tile(isotropic.iw_scale, (n, 1, 1, 1))
    # run 1: identical components, so VB keeps them identical, and an absurd
    # last measurement: every likelihood underflows there
    chi[1], dof[1], scale[1] = 5.0, 3.0, scale[1, 1]
    z[1, -1] = 1e150
    # run 2: an indefinite prior covariance forces an SPD repair
    p0[2] = [[5e-6, 6e-6], [6e-6, 5e-6]]
    # run 3: indefinite noise scales make every innovation covariance
    # singular-signed: weight -inf for every component, uniform fallback
    scale[3] = np.diag([1.0, -1.0]) * 1e3
    batched = GsfVbFilter(ss, MixtureNoiseModel(chi, dof, scale), GaussianBelief(x0, p0), vb=cfg.vb)
    scalar = [
        oracles.ScalarGsfVbFilter(
            ss,
            oracles.MixtureNoiseModel(chi[r].copy(), dof[r].copy(), scale[r].copy()),
            oracles.GaussianBelief(x0[r].copy(), p0[r].copy()),
            vb=cfg.vb,
        )
        for r in range(n)
    ]

    worst = 0.0
    last = z.shape[1] - 1
    with np.errstate(all="ignore"):
        for k in range(z.shape[1]):
            res = batched.step(z[:, k])
            for r, filt in enumerate(scalar):
                ref = filt.step(z[r, k])
                worst = max(
                    worst,
                    _rel(batched.belief.mean[r], ref.belief.mean),
                    _rel(batched.belief.cov[r], ref.belief.cov),
                    _rel(res.epsilon[r], ref.epsilon),
                    float(np.max(np.abs(res.responsibilities[r] - ref.responsibilities))),
                )
                # the noise refined after the last period feeds nothing; for
                # run 1 its statistic is ~1e300, where the closed-form 2x2
                # determinant overflows and LAPACK's LU does not
                if k < last:
                    worst = max(
                        worst,
                        _rel(batched.noise.dirichlet_concentration[r], filt.noise.dirichlet_concentration),
                        _rel(batched.noise.iw_dof[r], filt.noise.iw_dof),
                        _rel(batched.noise.iw_scale[r], filt.noise.iw_scale),
                    )
    assert worst <= 1e-12
    assert batched.spd_repairs.tolist() == [f.spd_repairs for f in scalar]
    assert batched.underflow_periods.tolist() == [f.underflow_periods for f in scalar]
    assert batched.spd_repairs[2] >= 1
    assert batched.underflow_periods[1] >= 1 and batched.underflow_periods[3] == last + 1
    # in some period one run of the batch converged early while another ran
    # out of iterations
    iters = np.array([[it for it, _ in f.vb_log] for f in scalar])
    converged = np.array([[c for _, c in f.vb_log] for f in scalar])
    assert np.any(np.any(iters < cfg.vb.max_iterations, axis=0) & np.any(~converged, axis=0))


def test_update_counters_are_python_scalars(ss):
    noise = MixtureNoiseModel.from_point_estimates([0.5, 0.5], [1e-6, 2e-6])
    batch = lambda x: np.broadcast_to(x, (3,) + np.shape(x)).copy()  # noqa: E731
    belief = GaussianBelief(batch([3e-7, 3.5e-6]), batch(np.diag([5e-6, 5e-6])))
    noise = MixtureNoiseModel(batch(noise.dirichlet_concentration), batch(noise.iw_dof), batch(noise.iw_scale))
    z = np.array([[2e-6, 3e-6], [1e300, 1e300], [1e300, 1e300]])
    with np.errstate(all="ignore"):
        res = gsf_update(belief, z, noise, ss)
        refined = vb_refine(noise, z, res.belief, ss, VbSettings())
    assert type(res.underflow) is int and res.underflow == 2
    assert type(res.spd_repairs) is int
    assert res.underflow_runs.tolist() == [False, True, True]
    assert type(refined.dof_clamped) is bool


def _trajectory_arrays(t):
    fields = [t.theta_true, t.delta_true, t.temp_osc, t.temp_meas, t.theta_L, t.theta_T, t.theta_F,
              t.delta_hat, t.epsilon, t.alpha, t.beta]
    fields += [t.est_skew[name] for name in sorted(t.est_skew)]
    fields += [t.est_offset[name] for name in sorted(t.est_offset)]
    return [(run, [f[i] for f in fields]) for i, run in enumerate(t.runs.tolist())]


def _same(a, b) -> bool:
    return len(a) == len(b) and all(
        ra == rb and all(np.array_equal(x, y, equal_nan=True) for x, y in zip(fa, fb))
        for (ra, fa), (rb, fb) in zip(a, b)
    )


@pytest.mark.parametrize("case", ["fusion_study", "case3"])
def test_batch_split_invariance(case):
    cfg = load_config(f"configs/{case}.json")
    cfg = cfg.with_overrides(estimators=("tacd", "gptp", "kalman", "thermal-only", "linear-only"))
    n = 6
    whole = _trajectory_arrays(simulate_run(cfg, range(n)))
    singles = _trajectory_arrays(Trajectories.concat([simulate_run(cfg, [r]) for r in range(n)]))
    uneven = _trajectory_arrays(Trajectories.concat([simulate_run(cfg, range(2)), simulate_run(cfg, range(2, n))]))
    assert _same(whole, singles)
    assert _same(whole, uneven)


def test_case_bounds_match_one_run_recursion():
    # the case's bounds at the fixed fusion weight take the one-run
    # recursion, bit for bit
    cfg = load_config("configs/fusion_study.json")
    weights, stddevs = pdv_params_table(cfg.scenario.pdv, cfg.scenario.horizon)
    oracle = OracleNoiseTruth(weights=weights, stddevs=stddevs)
    # the oracle's temperature block never enters the skew bound
    params = oracles.FusionBclbParams(alpha=FUSION_BOUND_ALPHA, sigma_m_sq=0.25, sigma_T_sq=cfg.temp_model.sigma_T_sq)
    one_run = oracles.bclb_trajectory(oracle, cfg.dynamics, params, cfg.netcomm_init.p0_diag[0])
    for new, old in zip(case_bounds(cfg), one_run):
        assert np.array_equal(new.view(np.uint64), old.view(np.uint64))


def _run_cli(tmp_path, doc, sub, tag, *flags):
    cfgp = tmp_path / f"{tag}.json"
    cfgp.write_text(json.dumps(doc))
    out = tmp_path / tag
    rc = cli_main([sub, "--config", str(cfgp), "--out", str(out), *flags])
    return rc, out


def test_simulated_bound_is_the_fusion_study_bound(tmp_path, capsys):
    # the bound is one per case: each simulated run carries the fusion
    # study's bound, whatever the worker count
    doc = json.loads(open("configs/fusion_study.json", encoding="utf-8").read())
    runs, h = 6, doc["horizon"]
    for workers in ("1", "2"):
        flags = ("--runs", str(runs), "--workers", workers)
        rc, sim = _run_cli(tmp_path, doc, "simulate", f"sim{workers}", *flags)
        assert rc == 0, capsys.readouterr().err
        rc, study = _run_cli(tmp_path, doc, "fusion-study", f"study{workers}", *flags)
        assert rc == 0, capsys.readouterr().err
        bound = load_csv_columns(study / "fusion_study.csv")["bclb_fusion"]
        per_run = load_csv_columns(sim / "trajectory.csv")["bclb_F"].reshape(runs, h)
        assert np.all(np.isfinite(bound))
        for row in per_run:
            assert np.array_equal(row.view(np.uint64), bound.view(np.uint64)), workers


def test_fusion_bound_guard_agrees_across_commands(tmp_path, capsys):
    # without sensor noise the fusion bound is undefined: every command
    # reports it as NaN next to a finite linear bound
    base = json.loads(open("configs/fusion_study.json", encoding="utf-8").read())
    base.update(runs=2, horizon=30, steady_window=5)
    base["thermal"]["segments"] = [{"start": 0, "end": 29, "kind": "constant", "value": 30.0}]
    base["temp_model"]["sigma_T_sq"] = 0.0
    cases = [
        ("simulate", "trajectory.csv", "bclb_L", "bclb_F"),
        ("bclb", "bclb.csv", "bclb_L", "bclb_F"),
        ("fusion-study", "fusion_study.csv", "bclb_single", "bclb_fusion"),
    ]
    for i, (sub, name, linear, fused) in enumerate(cases):
        rc, out = _run_cli(tmp_path, base, sub, f"{sub}{i}")
        assert rc == 0, capsys.readouterr().err
        cols = load_csv_columns(out / name)
        assert np.all(np.isfinite(cols[linear])), (sub, i)
        assert np.all(np.isnan(cols[fused])), (sub, i)
