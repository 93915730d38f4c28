import copy
import json
import re
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from tacd.cli import SUBCOMMANDS
from tacd.cli import main as cli_main
from tacd.config import ConfigError, load_config, parse_config
from tacd.report import emit_csv, emit_plot_svg, emit_table, load_csv_columns
from tacd.runner import (
    Trajectories,
    bclb_table,
    evaluate_rmse,
    fusion_study,
    run_case,
    simulate_run,
    trajectory_table,
)

from conftest import rmse_by_name, toy_trajectories

ROOT = Path(__file__).resolve().parent.parent
BASE_DOC = json.loads(open("configs/fusion_study.json", encoding="utf-8").read())
RMSE_HEADER = ["estimator", "skew_rmse", "offset_rmse"]


def _doc(**overrides):
    doc = copy.deepcopy(BASE_DOC)
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
    doc = {k: copy.deepcopy(BASE_DOC[k]) for k in ("schema_version", "horizon", "dynamics", "link")}
    doc["pdv"] = {k: BASE_DOC["pdv"][k] for k in ("stddevs", "weights")}
    doc["thermal"] = {"segments": BASE_DOC["thermal"]["segments"]}
    cfg = parse_config(doc)
    sc = cfg.scenario
    assert (cfg.runs, cfg.master_seed, cfg.workers) == (1000, 0, 1)
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


def _empirical(doc, tmp_path):
    """Swap the doc's PDV profile and link for an empirical block; returns it."""
    (tmp_path / "d.csv").write_text("packet_bytes,load_percent,delay_seconds\n64,5,4e-6\n64,25,2e-6\n")
    del doc["pdv"], doc["link"]
    doc["empirical"] = {"csv_path": "d.csv", "forward_cell": [64, 5], "reverse_cell": [64, 25]}
    return doc["empirical"]


def _run_simulate(doc, tmp_path):
    cfgp = tmp_path / "c.json"
    cfgp.write_text(json.dumps(doc))  # NaN and Infinity are written as JSON's literals
    return cli_main(["simulate", "--config", str(cfgp), "--runs", "2", "--out", str(tmp_path / "out")])


def _negate_last(key):
    def edit(doc, _):
        doc["netcomm_init"][key][-1] *= -1
    return edit


_NONPOSITIVE = "netcomm_init: P0_diag, chi0 and scale0 entries must be > 0"
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
]


@pytest.mark.parametrize("edit, error", [case[1:] for case in _MALFORMED], ids=[case[0] for case in _MALFORMED])
def test_cli_rejects_malformed_value_at_its_path(edit, error, tmp_path, capsys):
    doc = _doc()
    edit(doc, tmp_path)
    assert _run_simulate(doc, tmp_path) == 2
    assert capsys.readouterr().err.startswith(f"config error: {error}")
    assert not (tmp_path / "out").exists()


def test_null_block_reads_as_absent(tmp_path):
    doc = _doc(vb=None)
    _empirical(doc, tmp_path)
    doc["pdv"] = None
    cfg = parse_config(doc, base_dir=tmp_path)
    assert cfg.scenario.pdv is None and cfg.scenario.empirical.forward_cell == (64, 5.0)
    assert cfg.vb == parse_config(_doc(vb={})).vb
    assert _run_simulate(doc, tmp_path) == 0


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
    assert np.isnan(trajs.est_skew["gptp"][0, 0])  # no skew measurement yet
    assert np.isfinite(trajs.est_skew["tacd"][0, 0])  # prior-based output


def test_run_determinism_and_worker_independence(tmp_path):
    cfg = parse_config(_doc(runs=6)).with_overrides(estimators=("tacd", "gptp"))
    a = run_case(cfg)
    b = run_case(cfg)
    import dataclasses

    c = run_case(dataclasses.replace(cfg, workers=3))
    pa = emit_table(trajectory_table(cfg, a), tmp_path / "a.csv")
    pb = emit_table(trajectory_table(cfg, b), tmp_path / "b.csv")
    pc = emit_table(trajectory_table(cfg, c), tmp_path / "c.csv")
    assert pa.read_bytes() == pb.read_bytes() == pc.read_bytes()


def test_estimator_isolation():
    full = parse_config(_doc(runs=2)).with_overrides(
        estimators=("tacd", "kalman", "gptp", "thermal-only", "linear-only")
    )
    sub = full.with_overrides(estimators=("kalman", "gptp"))
    t_full = run_case(full)
    t_sub = run_case(sub)
    for r in range(2):
        for name in ("kalman", "gptp"):
            assert np.array_equal(
                t_full.est_skew[name][r], t_sub.est_skew[name][r], equal_nan=True
            )
            assert np.array_equal(
                t_full.est_offset[name][r], t_sub.est_offset[name][r], equal_nan=True
            )


def _toy_trajectories(rng, runs=4, horizon=20) -> Trajectories:
    truth_s, truth_o, est_s, est_o = [], [], [], []
    for _ in range(runs):
        truth_s.append(rng.normal(0, 1e-6, horizon))
        truth_o.append(rng.normal(0, 1e-6, horizon))
        est_s.append(truth_s[-1] + rng.normal(0, 1e-7, horizon))
        est_o.append(truth_o[-1] + rng.normal(0, 1e-7, horizon))
    return toy_trajectories(truth_s, truth_o, {"toy": np.array(est_s)}, {"toy": np.array(est_o)})


def test_rmse_trivial_values():
    rng = np.random.default_rng(1)
    trajs = _toy_trajectories(rng)
    trajs.est_skew["toy"] = trajs.theta_true.copy()
    trajs.est_offset["toy"] = trajs.delta_true + 2.5e-7
    s = rmse_by_name(evaluate_rmse(trajs, 10))["toy"]
    assert s[0] == 0.0
    assert s[1] == pytest.approx(2.5e-7, rel=1e-12)


def test_rmse_matches_brute_force():
    rng = np.random.default_rng(2)
    for _ in range(100):
        trajs = _toy_trajectories(rng, runs=int(rng.integers(1, 5)))
        window = int(rng.integers(1, 20))
        got = rmse_by_name(evaluate_rmse(trajs, window))["toy"]
        acc_s, acc_o, count = 0.0, 0.0, 0
        for r in range(len(trajs.runs)):
            for k in range(trajs.horizon - window, trajs.horizon):
                acc_s += (trajs.est_skew["toy"][r, k] - trajs.theta_true[r, k]) ** 2
                acc_o += (trajs.est_offset["toy"][r, k] - trajs.delta_true[r, k]) ** 2
                count += 1
        assert got[0] == pytest.approx(np.sqrt(acc_s / count), rel=1e-12)
        assert got[1] == pytest.approx(np.sqrt(acc_o / count), rel=1e-12)


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
    rng = np.random.default_rng(4)
    rows = [(i, float(v)) for i, v in enumerate(rng.uniform(-1e-5, 1e-5, 200))]
    p = emit_csv(rows, ["k", "value"], tmp_path / "r.csv")
    cols = load_csv_columns(p)
    assert np.array_equal(cols["value"], [v for _, v in rows])  # exact round-trip


def test_emit_csv_single_summary_row(tmp_path):
    p = emit_csv([("tacd", 1e-7, 2e-6)], RMSE_HEADER, tmp_path / "s.csv")
    lines = p.read_text().strip().split("\n")
    assert len(lines) == 2
    assert lines[1].startswith("tacd,")


def test_emit_csv_rejects_numpy_scalars(tmp_path):
    with pytest.raises(TypeError, match="'skew_rmse'.*float64"):
        emit_csv([("tacd", np.float64(1e-7), 2e-6)], RMSE_HEADER, tmp_path / "s.csv")
    with pytest.raises(TypeError, match="'k'.*int64"):
        emit_csv([(np.int64(0), 1.0)], ["k", "value"], tmp_path / "k.csv")


def test_emit_csv_rejects_row_of_other_width(tmp_path):
    with pytest.raises(ValueError, match="3 cells, the header 2"):
        emit_csv([(1.0, 2.0, 3.0)], ["a", "b"], tmp_path / "w.csv")
    assert not (tmp_path / "w.csv").exists()


def test_tables_round_trip_through_csv(tmp_path):
    # every artifact table is written as plain cells (emit_csv checks the
    # first row) and reads back as its columns broadcast and flattened
    cfg = parse_config(_doc(runs=3))
    result, trajs = fusion_study(cfg)
    tables = {
        "trajectory": trajectory_table(cfg, trajs),
        "fusion_study": result.table,
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
_PLOT_SERIES = {"simulate": 4, "evaluate": len(BASE_DOC["estimators"]), "fusion-study": 5, "bclb": 2}


@pytest.mark.parametrize("sub", sorted(SUBCOMMANDS))
def test_cli_plot_flag_writes_each_series(sub, tmp_path):
    runs = ["--runs", "2"] if "--runs" in SUBCOMMANDS[sub].flags else []
    out = tmp_path / "out"
    assert cli_main([sub, "--config", "configs/fusion_study.json", "--out", str(out), "--plot"] + runs) == 0
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
    with pytest.raises(SystemExit) as exc:
        cli_main([sub, "--config", "configs/fusion_study.json", "--out", str(tmp_path), flag, "2"])
    assert exc.value.code == 2
    assert not any(tmp_path.iterdir())


def test_readme_trajectory_header_is_the_table():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    header = re.search(r"`tacd simulate` writes one row per \(run, period\):\n\n```\n(.*)\n```", readme).group(1)
    cfg = parse_config(_doc(runs=1))
    assert header.split(",") == list(trajectory_table(cfg, simulate_run(cfg, [0])))

def test_cli_rejects_bad_config(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(_doc(bogus=1)))
    rc = cli_main(["simulate", "--config", str(bad), "--out", str(tmp_path)])
    assert rc == 2
    assert "bogus" in capsys.readouterr().err


def test_cli_rejects_two_delay_sources(tmp_path, capsys):
    # a PDV profile and an empirical table would each claim the delays; the
    # bound would describe the one the runs do not draw from
    (tmp_path / "d.csv").write_text("packet_bytes,load_percent,delay_seconds\n64,5,4e-6\n64,25,2e-6\n")
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
    (tmp_path / "d.csv").write_text("packet_bytes,load_percent,delay_seconds\n64,5,4e-6\n64,25,2e-6\n")
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
    (["simulate", "--workers", "0"], "workers"),
    (["simulate", "--workers", "-4"], "workers"),
    (["simulate", "--seed", "-1"], "master_seed"),
])
def test_cli_overrides_keep_config_bounds(argv, field, tmp_path, capsys):
    rc = cli_main(argv + ["--config", "configs/case1.json", "--out", str(tmp_path)])
    assert rc == 2
    assert f"{field}: must be >=" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("text, where", [("", "empty"), ("k,a\n0,1\n1\n", "line 3")], ids=["empty", "short-row"])
def test_cli_plot_rejects_malformed_csv(text, where, tmp_path, capsys):
    src = tmp_path / "bad.csv"
    src.write_text(text)
    rc = cli_main(["plot", str(src), "--y", "a", "--out", str(tmp_path / "bad.svg")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(src) in err and where in err
    assert not (tmp_path / "bad.svg").exists()


def test_negative_master_seed_rejected():
    with pytest.raises(ConfigError, match="master_seed"):
        parse_config(_doc(master_seed=-1))


def test_cli_byte_identical_outputs(tmp_path):
    cfgp = tmp_path / "c.json"
    cfgp.write_text(json.dumps(_doc(runs=3)))
    for sub in ("simulate", "evaluate"):
        outs = []
        for tag in ("x", "y"):
            out = tmp_path / f"{sub}_{tag}"
            rc = cli_main([sub, "--config", str(cfgp), "--out", str(out)])
            assert rc == 0
            csvs = sorted(out.glob("*.csv"))
            outs.append(b"".join(p.read_bytes() for p in csvs))
        assert outs[0] == outs[1]


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
    result, _ = fusion_study(cfg)
    assert result.steady_rmse_single2 < 1e-15
    assert result.steady_rmse_fusion <= result.steady_rmse_single1
