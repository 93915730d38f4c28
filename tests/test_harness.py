import contextlib
import io
import json
import re
import shutil
import xml.etree.ElementTree as ET
from dataclasses import replace

import numpy as np
import pytest

from tacd.cli import _FLAGS, SUBCOMMANDS
from tacd.cli import main as cli_main
from tacd.config import RUN_KEYS, ConfigError, RunConfig, load_config, parse_config
from tacd.report import emit_csv, emit_plot_svg, emit_table, load_csv_columns
from tacd.runner import (
    Trajectories,
    _run_rng,
    bclb_table,
    evaluate_rmse,
    fusion_study,
    run_case,
    simulate_run,
    trajectory_table,
)
from tacd.scenario import generate_scenario

from conftest import ROOT, STUDY, config_path, rmse_by_name, study_doc, toy_trajectories

RMSE_HEADER = ["estimator", "skew_rmse", "offset_rmse"]


def _doc(**overrides):
    doc = study_doc()
    doc.update(overrides)
    return doc


# --------------------------------------------------------------------- config

def test_unknown_key_rejected_with_path():
    with pytest.raises(ConfigError, match="top level.*bogus"):
        parse_config(_doc(bogus=1))
    doc = _doc()
    doc["vb"]["no_such"] = 2
    with pytest.raises(ConfigError, match="vb.*no_such"):
        parse_config(doc)
    doc = _doc()
    doc["pdv"]["schedule"][0]["typo"] = 1
    with pytest.raises(ConfigError, match=r"pdv.schedule\[0\]"):
        parse_config(doc)


def test_missing_required_key():
    doc = _doc()
    del doc["dynamics"]
    with pytest.raises(ConfigError, match="dynamics"):
        parse_config(doc)


def test_bad_estimator_name():
    with pytest.raises(ConfigError, match="unknown estimator"):
        parse_config(_doc(estimators=["tacd", "magic"]))


def test_bad_schema_version():
    with pytest.raises(ConfigError, match="schema_version"):
        parse_config(_doc(schema_version=99))


def test_thermal_gap_detected():
    doc = _doc()
    doc["thermal"]["segments"] = doc["thermal"]["segments"][:2]
    with pytest.raises(ConfigError, match="uncovered"):
        parse_config(doc)


def test_bad_lambda():
    doc = _doc()
    doc["fusion"]["lambda"] = 1.5
    with pytest.raises(ConfigError, match="lambda"):
        parse_config(doc)


def test_required_keys_only_reads_the_documented_defaults():
    # the defaults of the README's schema table, field by field
    base = study_doc()
    doc = {k: base[k] for k in ("schema_version", "horizon", "dynamics", "link")}
    doc["pdv"] = {k: base["pdv"][k] for k in ("stddevs", "weights")}
    doc["thermal"] = {"segments": base["thermal"]["segments"]}
    cfg = parse_config(doc)
    sc = cfg.scenario
    assert (cfg.runs, cfg.master_seed) == (1000, 0)
    assert cfg.dynamics.tau == sc.tau == 1.0
    assert sc.gm_coefficient == cfg.dynamics.m and sc.empirical is None
    assert sc.pdv.rate_schedule == () and sc.pdv.stddev_floor == 1e-7
    assert (sc.thermal.cooling_constant, sc.thermal.initial_oscillator_temp) == (10.0, 30.0)
    tm = cfg.temp_model
    assert sc.temp_model == tm and (tm.kappa, tm.T0, tm.theta0, tm.sigma_T_sq) == (0.04 * 1e-6, 25.0, 0.0, 0.1)
    tr = sc.truth
    assert (tr.initial_offset, tr.initial_skew_residual, tr.process_noise_sq, tr.thermal_coupling) == (1e-6, 0.0, 0.0, True)
    assert cfg.estimators == ("tacd", "gptp", "kalman", "thermal-only", "linear-only")
    assert (cfg.vb.max_iterations, cfg.vb.convergence_tol, cfg.vb.forgetting_factor) == (5, 1e-6, 0.95)
    ni = cfg.netcomm_init
    assert (ni.x0, ni.p0_diag) == ((3e-7, 3.5e-6), (5e-6, 5e-6))
    assert (ni.chi0, ni.dof0, ni.scale0) == ((1.0, 5.0, 5.0), (4.0, 3.0, 3.0), (1e-7, 2e-7, 2e-7))
    assert cfg.kalman_nominal_stddev == 5e-6
    assert (cfg.fusion.lam, cfg.fusion.feedback) == (0.5, True)
    assert (cfg.steady_window, cfg.output_dir) == (10, "out")


_DELAYS = b"packet_bytes,load_percent,delay_seconds\n64,5,4e-6\n64,25,2e-6\n"


def _empirical(doc, tmp_path, delays=_DELAYS):
    """Swap the doc's PDV profile and link for an empirical block over a delay
    file holding delays; returns the block."""
    (tmp_path / "d.csv").write_bytes(delays)
    del doc["pdv"], doc["link"]
    doc["empirical"] = {"csv_path": "d.csv", "forward_cell": [64, 5], "reverse_cell": [64, 25]}
    return doc["empirical"]


def _run_simulate(doc, tmp_path, *flags):
    cfgp = tmp_path / "c.json"
    cfgp.write_text(json.dumps(doc))  # NaN and Infinity are written as JSON's literals
    return cli_main(["simulate", "--config", str(cfgp), "--runs", "2", "--out", str(tmp_path / "out"), *flags])


def _negate_last(key):
    def edit(doc, _):
        doc["netcomm_init"][key][-1] *= -1
    return edit


_NONPOSITIVE = "netcomm_init: P0_diag, chi0 and scale0 entries must be > 0"


def _with_delays(delays: bytes):
    """Edit that swaps in the empirical block over a delay file holding delays."""
    def edit(doc, tmp_path):
        _empirical(doc, tmp_path, delays)
    return edit


def _segment_start(block, key, i, start):
    """Edit that moves the start of segment i of doc[block][key]."""
    def edit(doc, _):
        doc[block][key][i]["start"] = start
    return edit


_MALFORMED = [
    ("link", lambda doc, _: doc.update(link=5), "link: expected an object"),
    ("truth", lambda doc, _: doc.update(truth=5), "truth: expected an object"),
    ("vb", lambda doc, _: doc.update(vb=3), "vb: expected an object"),
    ("temp_model", lambda doc, _: doc.update(temp_model=1), "temp_model: expected an object"),
    ("thermal", lambda doc, _: doc.update(thermal=2), "thermal: expected an object"),
    ("netcomm_init", lambda doc, _: doc.update(netcomm_init="x"), "netcomm_init: expected an object"),
    ("pdv.schedule", lambda doc, _: doc["pdv"].update(schedule=5), "pdv.schedule: expected a list"),
    ("empirical.csv_path", lambda doc, tmp: _empirical(doc, tmp).update(csv_path=5),
     "empirical.csv_path: expected a string"),
    ("kalman_nominal_stddev", lambda doc, _: doc.update(kalman_nominal_stddev=float("nan")),
     "kalman_nominal_stddev: expected a finite number, got nan"),
    ("dynamics.sigma_u_sq", lambda doc, _: doc["dynamics"].update(sigma_u_sq=float("inf")),
     "dynamics.sigma_u_sq: expected a finite number, got inf"),
    ("empirical.forward_cell", lambda doc, tmp: _empirical(doc, tmp).update(forward_cell=[64.7, 5]),
     "empirical.forward_cell: expected a [packet_bytes, load_percent] pair with whole packet_bytes"),
    ("netcomm_init.P0_diag", _negate_last("P0_diag"), _NONPOSITIVE),
    ("netcomm_init.chi0", _negate_last("chi0"), _NONPOSITIVE),
    ("netcomm_init.scale0", _negate_last("scale0"), _NONPOSITIVE),
    ("netcomm_init.dof0", lambda doc, _: doc["netcomm_init"].update(dof0=[-4, 3, 3]),
     "netcomm_init: dof0 entries must be > 1"),
    ("empirical.forward_cell-absent", lambda doc, tmp: _empirical(doc, tmp).update(forward_cell=[128, 5]),
     "empirical: no delay samples for the forward cell (128, 5.0)"),
    ("empirical.csv_path-missing", lambda doc, tmp: _empirical(doc, tmp).update(csv_path="missing.csv"),
     "empirical.csv_path: [Errno 2] No such file or directory: '<tmp>/missing.csv'"),
    ("empirical.csv_path-bad-header", _with_delays(b"bytes,load,delay\n64,5,4e-6\n"),
     "empirical.csv_path: <tmp>/d.csv: bad header"),
    ("empirical.csv_path-nan-delay", _with_delays(_DELAYS + b"64,5,nan\n"),
     "empirical.csv_path: <tmp>/d.csv:4: delay must be finite and > 0, got nan"),
    ("empirical.csv_path-inf-delay", _with_delays(_DELAYS + b"64,5,inf\n"),
     "empirical.csv_path: <tmp>/d.csv:4: delay must be finite and > 0, got inf"),
    ("empirical.csv_path-nan-load", _with_delays(_DELAYS + b"64,nan,4e-6\n"),
     "empirical.csv_path: <tmp>/d.csv:4: load_percent must be finite, got nan"),
    ("empirical.csv_path-not-utf-8", _with_delays(_DELAYS + b"64,5,4e-6\xff\n"),
     "empirical.csv_path: <tmp>/d.csv: 'utf-8' codec can't decode byte 0xff"),
    ("estimators-repeated", lambda doc, _: doc.update(estimators=["tacd", "gptp", "tacd"]),
     "estimators: estimator 'tacd' selected more than once"),
    ("--estimators-repeated", lambda doc, _: ["--estimators", "linear-only,linear-only"],
     "estimators: estimator 'linear-only' selected more than once"),
    ("pdv.schedule-overlap", _segment_start("pdv", "schedule", 1, 15), "pdv: overlapping rate segments near period 15"),
    ("pdv.schedule-reversed", _segment_start("pdv", "schedule", 0, 20), "pdv.schedule[0]: segment start 20 > end 15"),
    ("thermal.segments-overlap", _segment_start("thermal", "segments", 1, 20),
     "thermal: overlapping thermal segments near period 20"),
    ("thermal.segments-reversed", _segment_start("thermal", "segments", 0, 25),
     "thermal.segments[0]: segment start 25 > end 20"),
]


@pytest.mark.parametrize("edit, error", [case[1:] for case in _MALFORMED], ids=[case[0] for case in _MALFORMED])
def test_cli_rejects_malformed_value_at_its_path(edit, error, tmp_path, capsys):
    # <tmp> in an expected message stands for the test's directory; an edit
    # may return CLI flags to pass
    doc = _doc()
    flags = edit(doc, tmp_path) or ()
    assert _run_simulate(doc, tmp_path, *flags) == 2
    assert capsys.readouterr().err.startswith(f"config error: {error.replace('<tmp>', str(tmp_path))}")
    assert not (tmp_path / "out").exists()


def test_null_block_reads_as_absent(tmp_path):
    doc = _doc(vb=None)
    _empirical(doc, tmp_path)
    doc["pdv"] = None
    cfg = parse_config(doc, base_dir=tmp_path)
    assert cfg.scenario.pdv is None and cfg.scenario.empirical.forward_cell == (64, 5.0)
    assert cfg.vb == parse_config(_doc(vb={})).vb
    assert _run_simulate(doc, tmp_path) == 0


def test_every_run_key_flag_reaches_with_overrides(tmp_path, monkeypatch):
    given = {"--runs": ("2", 2), "--seed": ("5", 5), "--estimators": ("gptp", ("gptp",)),
             "--out": (str(tmp_path), str(tmp_path))}
    seen, real = {}, RunConfig.with_overrides

    def recording(self, **settings):
        seen.update(settings)
        return real(self, **settings)

    monkeypatch.setattr(RunConfig, "with_overrides", recording)
    dests = {flag: _FLAGS[flag].get("dest", flag[2:]) for flag in SUBCOMMANDS["simulate"].flags}
    run_flags = [flag for flag, dest in dests.items() if dest in RUN_KEYS]
    assert run_flags
    argv = ["simulate", "--config", str(config_path("case2"))]
    assert cli_main(argv + [x for flag in run_flags for x in (flag, given[flag][0])]) == 0
    assert {k: v for k, v in seen.items() if v is not None} == {dests[flag]: given[flag][1] for flag in run_flags}


# --------------------------------------------------------------------- runner

def test_two_period_bootstrap():
    doc = _doc(horizon=2, runs=1, steady_window=2)
    doc["thermal"]["segments"] = [
        {"start": 0, "end": 1, "kind": "constant", "value": 30.0}
    ]
    cfg = parse_config(doc).with_overrides(estimators=("tacd", "gptp"))
    trajs = run_case(cfg)
    table = trajectory_table(cfg, trajs)
    assert np.broadcast_shapes(*(np.shape(c) for c in table.values())) == (1, 2)
    assert np.isnan(trajs.est["gptp"]["skew"][0, 0])  # no skew measurement yet
    assert np.isfinite(trajs.est["tacd"]["skew"][0, 0])  # prior-based output


def test_gptp_is_the_two_way_arithmetic_at_every_period():
    # no artifact holds gPTP at k = 0 (evaluate averages the last periods and
    # the trajectory CSV has no gPTP columns), so read it off the timestamps
    cfg = load_config(config_path("case1")).with_overrides(estimators=("gptp",))
    runs = [0, 1, 2]
    est = simulate_run(cfg, runs).est["gptp"]
    ex = generate_scenario(cfg.scenario, [_run_rng(cfg.master_seed, r) for r in runs]).exchanges
    d = cfg.scenario.link.d
    assert est["offset"].tobytes() == (((ex.t2 + ex.t3 - ex.t1 - ex.t4) - d) / 2.0).tobytes()
    assert np.all(np.isnan(est["skew"][:, 0]))
    pairs = ex.t2[:, 1:] - ex.t2[:, :-1] - ex.t1[:, 1:] + ex.t1[:, :-1]
    assert est["skew"][:, 1:].tobytes() == (pairs / cfg.dynamics.tau).tobytes()


def test_gptp_reads_the_estimators_period_not_the_truths():
    # like the filters (H = diag(tau, 2)), gptp divides by the model's
    # dynamics.tau; a config file fills it and the truth's scenario.tau from
    # one key, so set them apart here
    cfg = load_config(config_path("case1")).with_overrides(estimators=("gptp",))
    cfg = replace(cfg, dynamics=replace(cfg.dynamics, tau=2.0 * cfg.scenario.tau))
    skew = simulate_run(cfg, [0]).est["gptp"]["skew"]
    ex = generate_scenario(cfg.scenario, [_run_rng(cfg.master_seed, 0)]).exchanges
    pairs = ex.t2[:, 1:] - ex.t2[:, :-1] - ex.t1[:, 1:] + ex.t1[:, :-1]
    assert skew[:, 1:].tobytes() == (pairs / cfg.dynamics.tau).tobytes()


def test_estimator_isolation():
    full = parse_config(_doc(runs=2)).with_overrides(
        estimators=("tacd", "kalman", "gptp", "thermal-only", "linear-only")
    )
    sub = full.with_overrides(estimators=("kalman", "gptp"))
    t_full = run_case(full)
    t_sub = run_case(sub)
    for name in ("kalman", "gptp"):
        assert t_full.est[name].keys() == t_sub.est[name].keys() == {"skew", "offset"}
        for column in ("skew", "offset"):
            assert np.array_equal(t_full.est[name][column], t_sub.est[name][column], equal_nan=True)


# The trajectory columns an estimator pipeline computes, not the truth's.
_ESTIMATE_COLUMNS = ("theta_L", "theta_T", "theta_F", "delta_hat", "epsilon", "alpha", "beta")


def _simulated(tmp_path, estimators: str) -> dict:
    out = tmp_path / estimators
    argv = ["simulate", "--config", str(config_path("fusion_study")), "--runs", "2",
            "--estimators", estimators, "--out", str(out)]
    assert cli_main(argv) == 0
    return load_csv_columns(out / "trajectory.csv")


def test_trajectory_columns_follow_the_selection_not_its_order(tmp_path):
    # every shipped config lists tacd first, so the digests cannot tell which
    # selected estimator a column is read from
    first = _simulated(tmp_path, "tacd,gptp")
    for c in _ESTIMATE_COLUMNS:
        assert np.all(np.isfinite(first[c])), c
    for estimators in ("gptp,tacd", "linear-only,tacd", "thermal-only,linear-only,tacd"):
        last = _simulated(tmp_path, estimators)
        for c in _ESTIMATE_COLUMNS:
            assert np.array_equal(first[c], last[c]), (estimators, c)
    neither = _simulated(tmp_path, "gptp,kalman")
    assert all(np.all(np.isnan(neither[c])) for c in _ESTIMATE_COLUMNS)
    thermal = _simulated(tmp_path, "gptp,thermal-only")
    assert np.array_equal(thermal["theta_T"], first["theta_T"])
    assert all(np.all(np.isnan(thermal[c])) for c in _ESTIMATE_COLUMNS if c != "theta_T")


def _toy_trajectories(rng, runs=4, horizon=20) -> Trajectories:
    truth_s, truth_o, est_s, est_o = [], [], [], []
    for _ in range(runs):
        truth_s.append(rng.normal(0, 1e-6, horizon))
        truth_o.append(rng.normal(0, 1e-6, horizon))
        est_s.append(truth_s[-1] + rng.normal(0, 1e-7, horizon))
        est_o.append(truth_o[-1] + rng.normal(0, 1e-7, horizon))
    return toy_trajectories(truth_s, truth_o, {"toy": {"skew": np.array(est_s), "offset": np.array(est_o)}})


def test_rmse_trivial_values():
    rng = np.random.default_rng(1)
    trajs = _toy_trajectories(rng)
    trajs.est["toy"] = {"skew": trajs.theta_true.copy(), "offset": trajs.delta_true + 2.5e-7}
    s = rmse_by_name(evaluate_rmse(trajs, 10))["toy"]
    assert s[0] == 0.0
    assert s[1] == pytest.approx(2.5e-7, rel=1e-12, abs=0.0)


def test_rmse_empty_window_rejected():
    trajs = _toy_trajectories(np.random.default_rng(3))
    with pytest.raises(ValueError, match="window"):
        evaluate_rmse(trajs, 0)
    with pytest.raises(ValueError, match="window"):
        evaluate_rmse(trajs, 21)


# ----------------------------------------------------------------- CSV / SVG

def test_emit_csv_empty_stream(tmp_path):
    p = emit_csv([], RMSE_HEADER, tmp_path / "empty.csv")
    assert p.read_text().strip() == ",".join(RMSE_HEADER)


def test_emit_csv_round_trip(tmp_path):
    # emit_csv writes str cells as they are; a float's repr reads back exactly
    rng = np.random.default_rng(4)
    values = rng.uniform(-1e-5, 1e-5, 200).tolist()
    rows = [(str(i), repr(v)) for i, v in enumerate(values)]
    p = emit_csv(rows, ["k", "value"], tmp_path / "r.csv")
    assert p.read_text().split("\n")[:2] == ["k,value", "0," + repr(values[0])]
    cols = load_csv_columns(p)
    assert np.array_equal(cols["value"], values) and np.array_equal(cols["k"], np.arange(200))


def test_emit_csv_single_summary_row(tmp_path):
    p = emit_csv([("tacd", "1e-07", "2e-06")], RMSE_HEADER, tmp_path / "s.csv")
    assert p.read_text() == "estimator,skew_rmse,offset_rmse\ntacd,1e-07,2e-06\n"


def test_emit_csv_rejects_numpy_scalars(tmp_path):
    # and every other cell that is not a str
    with pytest.raises(TypeError, match="'skew_rmse'.*float64"):
        emit_csv([("tacd", np.float64(1e-7), "2e-06")], RMSE_HEADER, tmp_path / "s.csv")
    with pytest.raises(TypeError, match="'k'.*int64"):
        emit_csv([(np.int64(0), "1.0")], ["k", "value"], tmp_path / "k.csv")
    with pytest.raises(TypeError, match="'skew_rmse' holds a float, expected str"):
        emit_csv([("tacd", 1e-7, 2e-6)], RMSE_HEADER, tmp_path / "f.csv")
    assert not list(tmp_path.iterdir())


def test_emit_csv_rejects_row_of_other_width(tmp_path):
    with pytest.raises(ValueError, match="3 cells, the header 2"):
        emit_csv([("1.0", "2.0", "3.0")], ["a", "b"], tmp_path / "w.csv")
    assert not (tmp_path / "w.csv").exists()


def test_tables_round_trip_through_csv(tmp_path):
    # every artifact table is written as plain cells (emit_csv checks the
    # first row) and reads back as its columns broadcast and flattened
    cfg = parse_config(_doc(runs=3))
    study, trajs = fusion_study(cfg)
    tables = {
        "trajectory": trajectory_table(cfg, trajs),
        "fusion_study": study,
        "bclb": bclb_table(cfg),
        "rmse_summary": evaluate_rmse(trajs, cfg.steady_window),
    }
    for name, table in tables.items():
        cols = load_csv_columns(emit_table(table, tmp_path / f"{name}.csv"))
        assert list(cols) == list(table), name
        for col, want in zip(table, np.broadcast_arrays(*table.values())):
            assert np.array_equal(cols[col], want.reshape(-1), equal_nan=want.dtype.kind == "f"), (name, col)



def test_svg_flat_series(tmp_path):
    p = emit_plot_svg([("flat", np.arange(10), np.full(10, 2.0))], tmp_path / "f.svg")
    text = p.read_text()
    assert text.count("<polyline") == 1
    ET.parse(p)


def test_svg_two_series_legend(tmp_path):
    p = emit_plot_svg(
        [("a", np.arange(5), np.arange(5) + 1.0), ("b", np.arange(5), np.arange(5) + 2.0)],
        tmp_path / "t.svg",
        log_y=True,
    )
    text = p.read_text()
    assert text.count("<polyline") == 2
    assert ">a</text>" in text and ">b</text>" in text
    ET.parse(p)


def test_svg_empty_rejected(tmp_path):
    with pytest.raises(ValueError):
        emit_plot_svg([], tmp_path / "x.svg")


# ----------------------------------------------------------------------- CLI

# plot series per subcommand; evaluate plots one series per selected estimator
_PLOT_SERIES = {"simulate": 4, "evaluate": len(STUDY.estimators), "fusion-study": 5, "bclb": 2}


@pytest.mark.parametrize("sub", sorted(SUBCOMMANDS))
def test_cli_plot_flag_writes_each_series(sub, tmp_path):
    runs = ["--runs", "2"] if "--runs" in SUBCOMMANDS[sub].flags else []
    out = tmp_path / "out"
    assert cli_main([sub, "--config", str(config_path("fusion_study")), "--out", str(out), "--plot"] + runs) == 0
    svg = out / SUBCOMMANDS[sub].svg
    root = ET.parse(svg).getroot()
    # each series has one legend swatch, the only lines drawn 2 px wide
    swatches = [e for e in root.iter("{http://www.w3.org/2000/svg}line") if e.get("stroke-width") == "2"]
    assert len(swatches) == _PLOT_SERIES[sub]


@pytest.mark.parametrize("sub, flag", [
    ("bclb", "--runs"), ("bclb", "--seed"), ("bclb", "--estimators"), ("bclb", "--workers"),
    ("fusion-study", "--estimators"),
])
def test_cli_rejects_flag_the_subcommand_ignores(sub, flag, tmp_path):
    # --workers alone is accepted where ignored (test_cli_workers_flag_changes_no_byte)
    with pytest.raises(SystemExit) as exc:
        cli_main([sub, "--config", str(config_path("fusion_study")), "--out", str(tmp_path), flag, "2"])
    assert exc.value.code == 2
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("sub", ["simulate", "evaluate", "fusion-study"])
def test_cli_workers_flag_changes_no_byte(sub, tmp_path, capsys):
    # --workers is accepted for compatibility and read by nothing
    argv = [sub, "--config", str(config_path("case2")), "--runs", "3"]
    outputs = []
    for name, extra in (("plain", []), ("workers", ["--workers", "3"])):
        out = tmp_path / name
        assert cli_main(argv + ["--out", str(out)] + extra) == 0
        stdout = capsys.readouterr().out.replace(str(out), "<out>")
        outputs.append((stdout, {p.name: p.read_bytes() for p in out.iterdir()}))
    assert outputs[0] == outputs[1]


def test_readme_trajectory_header_is_the_table():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    header = re.search(r"`tacd simulate` writes one row per \(run, period\):\n\n```\n(.*)\n```", readme).group(1)
    cfg = parse_config(_doc(runs=1))
    assert header.split(",") == list(trajectory_table(cfg, simulate_run(cfg, [0])))


def test_readme_python_api_block_runs(tmp_path, monkeypatch):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Python API\n\n```python\n(.*?)```", readme, re.S).group(1)
    shutil.copytree(ROOT / "configs", tmp_path / "configs")
    monkeypatch.chdir(tmp_path)
    exec(compile(block, "README.md", "exec"), {})
    assert (tmp_path / "out" / "trajectory.csv").is_file()


def test_bound_columns_are_nan_without_a_pdv_profile(tmp_path):
    # empirical delays have no oracle noise profile: the bound commands run
    # and write NaN bounds next to finite RMSE curves
    doc = _doc()
    _empirical(doc, tmp_path)
    cfgp = tmp_path / "c.json"
    cfgp.write_text(json.dumps(doc))
    stdout = {}
    for sub, bounds in (("fusion-study", ("bclb_single", "bclb_fusion")), ("bclb", ("bclb_L", "bclb_F"))):
        runs = ["--runs", "2"] if "--runs" in SUBCOMMANDS[sub].flags else []
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert cli_main([sub, "--config", str(cfgp), "--out", str(tmp_path / sub)] + runs) == 0
        stdout[sub] = out.getvalue()
        cols = load_csv_columns(tmp_path / sub / SUBCOMMANDS[sub].csv)
        assert all(np.all(np.isnan(cols[name])) for name in bounds), sub
        assert all(np.all(np.isfinite(cols[name])) for name in cols if name.startswith("rmse_")), sub
    assert "steady-state bound reduction: nan\n" in stdout["fusion-study"]


def test_failed_plot_leaves_no_artifact(tmp_path, capsys):
    # bclb on empirical delays has only NaN bounds to plot, so the command
    # fails and writes neither file; fusion-study's RMSE curves still plot
    doc = _doc()
    _empirical(doc, tmp_path)
    cfgp = tmp_path / "c.json"
    cfgp.write_text(json.dumps(doc))
    assert cli_main(["bclb", "--config", str(cfgp), "--out", str(tmp_path / "bclb"), "--plot"]) == 1
    assert capsys.readouterr().err == "error: series contain no plottable points\n"
    assert not list((tmp_path / "bclb").glob("*"))
    out = tmp_path / "fusion-study"
    assert cli_main(["fusion-study", "--config", str(cfgp), "--out", str(out), "--runs", "2", "--plot"]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["fusion_study.csv", "fusion_study.svg"]


def test_cli_rejects_bad_config(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(_doc(bogus=1)))
    rc = cli_main(["simulate", "--config", str(bad), "--out", str(tmp_path)])
    assert rc == 2
    assert "bogus" in capsys.readouterr().err
    bad.write_bytes(b"\xff" + bad.read_bytes())  # not UTF-8: the file is named, as for invalid JSON
    assert cli_main(["simulate", "--config", str(bad), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {bad}: 'utf-8' codec can't decode byte 0xff")


def test_cli_rejects_two_delay_sources(tmp_path, capsys):
    # a PDV profile and an empirical table would each claim the delays; the
    # bound would describe the one the runs do not draw from
    (tmp_path / "d.csv").write_bytes(_DELAYS)
    doc = _doc(empirical={"csv_path": "d.csv", "forward_cell": [64, 5], "reverse_cell": [64, 25]})
    with pytest.raises(ConfigError, match="exactly one of 'pdv' and 'empirical'"):
        parse_config(doc, base_dir=tmp_path)
    cfgp = tmp_path / "both.json"
    cfgp.write_text(json.dumps(doc))
    rc = cli_main(["bclb", "--config", str(cfgp), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "'pdv' and 'empirical'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _empirical_next_to_link(doc, tmp_path):
    (tmp_path / "d.csv").write_bytes(_DELAYS)
    del doc["pdv"]  # the shipped doc's link block stays
    doc["empirical"] = {"csv_path": "d.csv", "forward_cell": [64, 5], "reverse_cell": [64, 25]}


@pytest.mark.parametrize("key, edit", [
    ("bclb", lambda doc, _: doc.update(bclb={"alpha_mode": "fixed", "alpha_value": 0.5})),
    ("enabled", lambda doc, _: doc["vb"].update(enabled=True)),
    ("unit_scale", lambda doc, _: doc["netcomm_init"].update(unit_scale=1e-6)),
    ("link", _empirical_next_to_link),
], ids=["bclb", "vb.enabled", "netcomm_init.unit_scale", "link-with-empirical"])
def test_cli_rejects_keys_no_run_reads(key, edit, tmp_path, capsys):
    # a key that would change nothing the command writes is an error, not a
    # silent no-op
    doc = _doc()
    edit(doc, tmp_path)
    cfgp = tmp_path / "c.json"
    cfgp.write_text(json.dumps(doc))
    rc = cli_main(["simulate", "--config", str(cfgp), "--runs", "2", "--out", str(tmp_path / "out")])
    assert rc == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_rejects_missing_segment_parameter(tmp_path, capsys):
    doc = _doc()
    del doc["thermal"]["segments"][1]["amp"]
    cfgp = tmp_path / "c.json"
    cfgp.write_text(json.dumps(doc))
    rc = cli_main(["simulate", "--config", str(cfgp), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "thermal.segments[1]: missing parameter(s) ['amp'] for kind multimodal" in capsys.readouterr().err


@pytest.mark.parametrize("argv, field", [
    (["simulate", "--runs", "0"], "runs"),
    (["simulate", "--runs", "-3"], "runs"),
    (["fusion-study", "--runs", "0"], "runs"),
    (["simulate", "--seed", "-1"], "master_seed"),
])
def test_cli_overrides_keep_config_bounds(argv, field, tmp_path, capsys):
    rc = cli_main(argv + ["--config", str(config_path("case1")), "--out", str(tmp_path)])
    assert rc == 2
    assert f"{field}: must be >=" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("text, where", [(b"", "empty"), (b"k,a\n0,1\n1\n", "line 3"), (b"t,a\n0,1\n", "column 'k'"),
                                         (b"k,b\n0,1\n", "column 'a'"), (b"k,a\n0,\xff\n", "byte 0xff")],
                         ids=["empty", "short-row", "no-x-column", "no-y-column", "not-utf-8"])
def test_cli_plot_rejects_malformed_csv(text, where, tmp_path, capsys):
    src = tmp_path / "bad.csv"
    src.write_bytes(text)
    rc = cli_main(["plot", str(src), "--y", "a", "--out", str(tmp_path / "bad.svg")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(src) in err and where in err
    assert not (tmp_path / "bad.svg").exists()


def test_negative_master_seed_rejected():
    with pytest.raises(ConfigError, match="master_seed"):
        parse_config(_doc(master_seed=-1))


def test_overrides_are_read_by_config_key():
    cfg = parse_config(_doc())
    assert cfg.with_overrides(master_seed=5, runs=None).master_seed == 5
    assert cfg.with_overrides(runs=None) == cfg
    with pytest.raises(ConfigError, match="master_seed: must be >= 0"):
        cfg.with_overrides(master_seed=-1)
    with pytest.raises(ConfigError, match=r"unknown key\(s\) \['seed'\]"):
        cfg.with_overrides(seed=5)
    with pytest.raises(ConfigError, match=r"unknown key\(s\) \['workers'\]"):
        cfg.with_overrides(workers=2)


def test_cli_rejects_duplicate_key(tmp_path, capsys):
    # json.loads alone keeps the last of two equal keys: this file would run 7 runs
    cfgp = tmp_path / "c.json"
    cfgp.write_text(json.dumps(_doc(runs=1000))[:-1] + ', "runs": 7}')
    rc = cli_main(["simulate", "--config", str(cfgp), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"config error: {cfgp}: duplicate key 'runs'")
    assert not (tmp_path / "out").exists()


# -------------------------------------------------------------- fusion study

def test_fusion_study_thermal_oracle_collapse():
    # constant ideal temperature and a perfect sensor: the thermal-model
    # estimator collapses onto the truth
    doc = _doc(runs=5, horizon=40)
    doc["thermal"] = {
        "segments": [{"start": 0, "end": 39, "kind": "constant", "value": 25.0}],
        "cooling_constant": 10.0,
        "initial_temp": 25.0,
    }
    doc["temp_model"]["sigma_T_sq"] = 0.0
    doc["truth"]["process_noise_sq"] = 0.0
    cfg = parse_config(doc)
    _, t = fusion_study(cfg)
    network, thermal, fused = evaluate_rmse(t, cfg.steady_window, ("linear-only", "thermal-only", "tacd"))["skew_rmse"]
    assert thermal < 1e-15
    assert fused <= network
