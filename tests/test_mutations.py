"""Deliberate faults in the program must fail the tests that guard against them.

Each entry names a module, a snippet of its source that occurs exactly
once, the snippet's replacement, and the tier-1 tests (test module,
function, arguments) that must fail under the change. The mutated source is
executed as a stand-in module in this process, and every binding of the
module's functions and classes, in the tacd package and in the test modules
(the oracles excepted), points at the stand-in's for the duration of the
check.
The same tests must pass under a stand-in built from the unchanged source,
so a failure comes from the mutation and not from the swap.
"""
import importlib
import inspect
import sys
import types
from pathlib import Path

import pytest

import tacd.cli  # noqa: F401  (imports every module the CLI reaches)

from conftest import ROOT

TESTS = ROOT / "tests"

MUTATIONS = {
    "cooling-decay-doubled": (
        "tacd.scenario",
        "np.exp(-1.0 / cfg.thermal.cooling_constant)",
        "np.exp(-2.0 / cfg.thermal.cooling_constant)",
        [("test_scenario", "test_cooling_step", {}),
         ("test_scenario_oracle", "test_shipped_configs_match_oracle", {"case": "fusion_study"}),
         ("test_acceptance", "test_criterion_9_property_suites", {})],
    ),
    "gauss-markov-coefficient-dropped": (
        "tacd.scenario",
        "cfg.gm_coefficient * gamma[:, k - 1] + u[:, k]",
        "gamma[:, k - 1] + u[:, k]",
        [("test_clock", "test_advance_reference_parameters", {}),
         ("test_scenario_oracle", "test_gauss_markov_residual_matches_oracle", {})],
    ),
    "colored-draw-read-from-sensor-position": (
        "tacd.scenario",
        "normals[:, sensor[sl] - 1]",
        "normals[:, sensor[sl]]",
        [("test_scenario_oracle", "test_colored_noise_at_both_ends_matches_oracle", {"horizon": 40}),
         ("test_scenario_oracle", "test_empirical_mode_matches_oracle", {})],
    ),
    "pdv-pick-drawn-after-its-normals": (
        "tacd.scenario",
        "picks.append(random())\n                rng.standard_normal(out=view)",
        "rng.standard_normal(out=view)\n                picks.append(random())",
        [("test_scenario_oracle", "test_shipped_configs_match_oracle", {"case": "case2"})],
    ),
    "bound-data-terms-one-period-early": (
        "tacd.bclb",
        "oracle.weights[1:], oracle.stddevs[1:]",
        "oracle.weights[:-1], oracle.stddevs[:-1]",
        [("test_batched_filters", "test_case_bounds_match_one_run_recursion", {"case": "case3"})],
    ),
    "fused-skew-scaled": (
        "tacd.fusion",
        "return (1.0 - beta) * theta_linear + beta * theta_thermal",
        "return ((1.0 - beta) * theta_linear + beta * theta_thermal) * (1 + 1e-15)",
        [("test_fusion", "test_fuse_skew_values", {}),
         ("test_artifact_digests", "test_artifact_digests", {"config": "fusion_study", "sub": "fusion-study"})],
    ),
    "tacd-alpha-column-set-to-beta": (
        "tacd.runner",
        '"alpha": 1.0 - beta',
        '"alpha": beta',
        [("test_artifact_digests", "test_artifact_digests", {"config": "fusion_study", "sub": "simulate"})],
    ),
    "fused-skew-fed-back-into-linear-only-rows": (
        "tacd.runner",
        "skew[:runs] = theta_F[:, k]",
        "skew[:] = np.tile(theta_F[:, k], 2)",
        [("test_batched_filters", "test_network_phase_subset_invariance", {"case": "case3"}),
         ("test_artifact_digests", "test_artifact_digests", {"config": "case3", "sub": "evaluate"})],
    ),
    "fusion-bound-weight-halved": (
        "tacd.runner",
        "FUSION_BOUND_ALPHA = 0.5",
        "FUSION_BOUND_ALPHA = 0.25",
        [("test_artifact_digests", "test_artifact_digests", {"config": "fusion_study", "sub": "fusion-study"})],
    ),
    "offset-measurement-dropped-at-first-period": (
        "tacd.netcomm",
        "z[..., 1] = ex.t2 + ex.t3 - ex.t1 - ex.t4 - d",
        "z[..., 1] = ex.t2 + ex.t3 - ex.t1 - ex.t4 - d\n    z[..., 0, 1] = np.nan",
        [("test_harness", "test_gptp_is_the_two_way_arithmetic_at_every_period", {})],
    ),
    "fused-skew-read-from-first-estimator": (
        "tacd.runner",
        '"theta_F": tacd["skew"]',
        '"theta_F": next(iter(t.est.values()))["skew"]',
        [("test_harness", "test_trajectory_columns_follow_the_selection_not_its_order", {})],
    ),
    "empirical-bounds-reported-as-zero": (
        "tacd.runner",
        "return np.full(cfg.scenario.horizon, np.nan), np.full(cfg.scenario.horizon, np.nan)",
        "return np.zeros(cfg.scenario.horizon), np.zeros(cfg.scenario.horizon)",
        [("test_harness", "test_bound_columns_are_nan_without_a_pdv_profile", {})],
    ),
    "shared-kalman-covariance-never-advanced": (
        "tacd.netcomm",
        "cov = (j[0] + n[0], j[1] + n[1], j[2] + n[2])",
        "cov = tuple(P)",
        [("test_acceptance", "test_criterion_3_kalman_equivalence", {})],
    ),
    "converged-vb-rows-not-held": (
        "tacd.netcomm",
        "params = np.where(active[..., None], update, params) if held else update",
        "params = update",
        [("test_batched_filters", "test_batched_filter_matches_scalar_oracle", {"case": "case3"})],
    ),
    "offset-innovation-scaled-by-skew-entry-of-h": (
        "tacd.netcomm",
        "v1 = z1 - h1 * x1",
        "v1 = z1 - h0 * x1",
        [("test_batched_filters", "test_batched_filter_matches_scalar_oracle", {"case": "case1"}),
         ("test_artifact_digests", "test_artifact_digests", {"config": "case3", "sub": "evaluate"})],
    ),
    "offset-entry-of-h-read-from-its-skew-entry": (
        "tacd.clock",
        "h1=2.0",
        "h1=tau",
        [("test_clock", "test_state_space_unit_parameters", {})],
    ),
    "joseph-factor-transposed": (
        "tacd.netcomm",
        "_congruence(ikh, p00, p01, p11)",
        "_congruence((ikh[0], ikh[2], ikh[1], ikh[3]), p00, p01, p11)",
        [("test_batched_filters", "test_batched_filter_matches_scalar_oracle", {"case": "case3"})],
    ),
    "point-covariances-without-the-dof-clamp": (
        "tacd.netcomm",
        "np.maximum(rows[1], _DOF_CLAMP)",
        "rows[1]",
        [("test_batched_filters", "test_batched_filter_matches_scalar_oracle", {"case": "case3"})],
    ),
    "dof-clamp-flag-read-at-the-existence-boundary": (
        "tacd.netcomm",
        "return bool(np.any(self.iw_dof < MIN_IW_DOF))",
        "return bool(np.any(self.iw_dof <= _DIM + 1))",
        [("test_netcomm", "test_dof_clamped_reads_the_dofs_of_a_directly_built_model", {})],
    ),
    "filter-run-shapes-not-checked": (
        "tacd.netcomm",
        "if belief_rows.shape[1:] != noise_rows.shape[1:-1]:",
        "if False:",
        [("test_netcomm", "test_filter_rejects_run_shapes_that_differ", {})],
    ),
    "plain-cell-check-lets-commas-through": (
        "tacd.report",
        "',\"\\r\\n'",
        "'\"\\r\\n'",
        [("test_csv_output", "test_cells_csv_would_quote_are_refused", {"header": ("name", "value"), "cell": "a,b"})],
    ),
    "broadcast-axis-found-by-the-wrong-stride": (
        "tacd.report",
        "zip(column.shape, column.strides)",
        "zip(column.shape, column.strides[::-1])",
        [("test_harness", "test_tables_round_trip_through_csv", {}),
         ("test_artifact_digests", "test_simulate_digests_at_large_runs", {"config": "case2"})],
    ),
}


def _stand_in(module, snippet: str, replacement: str) -> types.ModuleType:
    source = inspect.getsource(module)
    assert source.count(snippet) == 1, f"the snippet must occur once in {module.__name__}: {snippet!r}"
    stand_in = types.ModuleType(module.__name__)
    stand_in.__dict__.update(__file__=module.__file__, __package__=module.__package__)
    exec(compile(source.replace(snippet, replacement), module.__file__, "exec"), vars(stand_in))
    return stand_in


def _rebind(mp, module, stand_in) -> None:
    """Point every binding of the module's functions and classes at the
    stand-in's."""
    owners = [
        m for name, m in list(sys.modules.items())
        if name == "tacd" or name.startswith("tacd.")
        or (name != "oracles" and Path(getattr(m, "__file__", None) or "/").parent == TESTS)
    ]
    for name, orig in list(vars(module).items()):
        if not (isinstance(orig, (types.FunctionType, type)) and orig.__module__ == module.__name__):
            continue
        for owner in owners:
            for key, value in list(vars(owner).items()):
                if value is orig:
                    mp.setattr(owner, key, getattr(stand_in, name))


def _call(test, kwargs, tmp_path: Path) -> None:
    """Call a test with its arguments and, where it takes one, a fresh
    tmp_path."""
    if "tmp_path" in inspect.signature(test).parameters:
        tmp_path.mkdir()
        kwargs = {**kwargs, "tmp_path": tmp_path}
    test(**kwargs)


@pytest.mark.parametrize("mutation", MUTATIONS)
def test_mutation_fails_named_tests(mutation, monkeypatch, tmp_path):
    module_name, snippet, replacement, named = MUTATIONS[mutation]
    module = importlib.import_module(module_name)
    tests = [(getattr(importlib.import_module(mod), func), kwargs) for mod, func, kwargs in named]
    with monkeypatch.context() as mp:
        _rebind(mp, module, _stand_in(module, snippet, snippet))
        for i, (test, kwargs) in enumerate(tests):
            _call(test, kwargs, tmp_path / f"control{i}")
    with monkeypatch.context() as mp:
        _rebind(mp, module, _stand_in(module, snippet, replacement))
        for i, (test, kwargs) in enumerate(tests):
            with pytest.raises(AssertionError):
                _call(test, kwargs, tmp_path / f"mutant{i}")
