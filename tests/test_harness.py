import copy
import json
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from tacd.cli import main as cli_main
from tacd.config import ConfigError, load_config, parse_config
from tacd.report import (
    SUMMARY_COLUMNS,
    TRAJECTORY_COLUMNS,
    emit_csv,
    emit_plot_svg,
    load_csv_columns,
)
from tacd.runner import (
    Trajectories,
    bclb_rows,
    evaluate_rmse,
    fusion_study,
    fusion_study_rows,
    run_case,
    simulate_run,
    trajectory_rows,
)

from conftest import toy_trajectories

BASE_DOC = json.loads(open("configs/fusion_study.json", encoding="utf-8").read())


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


# --------------------------------------------------------------------- runner

def test_two_period_bootstrap():
    doc = _doc(horizon=2, runs=1, steady_window=2)
    doc["thermal"]["segments"] = [
        {"start": 0, "end": 1, "kind": "constant", "value": 30.0}
    ]
    cfg = parse_config(doc).with_overrides(estimators=("tacd", "gptp"))
    trajs = run_case(cfg)
    rows = list(trajectory_rows(cfg, trajs))
    assert len(rows) == 2
    assert np.isnan(trajs.est_skew["gptp"][0, 0])  # no skew measurement yet
    assert np.isfinite(trajs.est_skew["tacd"][0, 0])  # prior-based output


def test_run_determinism_and_worker_independence(tmp_path):
    cfg = parse_config(_doc(runs=6)).with_overrides(estimators=("tacd", "gptp"))
    a = run_case(cfg)
    b = run_case(cfg)
    import dataclasses

    c = run_case(dataclasses.replace(cfg, workers=3))
    pa = emit_csv(trajectory_rows(cfg, a), TRAJECTORY_COLUMNS, tmp_path / "a.csv")
    pb = emit_csv(trajectory_rows(cfg, b), TRAJECTORY_COLUMNS, tmp_path / "b.csv")
    pc = emit_csv(trajectory_rows(cfg, c), TRAJECTORY_COLUMNS, tmp_path / "c.csv")
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
    s = evaluate_rmse(trajs, 10).as_dict()["toy"]
    assert s[0] == 0.0
    assert s[1] == pytest.approx(2.5e-7, rel=1e-12)


def test_rmse_matches_brute_force():
    rng = np.random.default_rng(2)
    for _ in range(100):
        trajs = _toy_trajectories(rng, runs=int(rng.integers(1, 5)))
        window = int(rng.integers(1, 20))
        got = evaluate_rmse(trajs, window).as_dict()["toy"]
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
    p = emit_csv([], SUMMARY_COLUMNS, tmp_path / "empty.csv")
    assert p.read_text().strip() == ",".join(SUMMARY_COLUMNS)


def test_emit_csv_round_trip(tmp_path):
    rng = np.random.default_rng(4)
    rows = [(i, float(v)) for i, v in enumerate(rng.uniform(-1e-5, 1e-5, 200))]
    p = emit_csv(rows, ["k", "value"], tmp_path / "r.csv")
    cols = load_csv_columns(p)
    assert np.array_equal(cols["value"], [v for _, v in rows])  # exact round-trip


def test_emit_csv_single_summary_row(tmp_path):
    p = emit_csv([("tacd", 1e-7, 2e-6)], SUMMARY_COLUMNS, tmp_path / "s.csv")
    lines = p.read_text().strip().split("\n")
    assert len(lines) == 2
    assert lines[1].startswith("tacd,")


def test_emit_csv_rejects_numpy_scalars(tmp_path):
    with pytest.raises(TypeError, match="'skew_rmse'.*float64"):
        emit_csv([("tacd", np.float64(1e-7), 2e-6)], SUMMARY_COLUMNS, tmp_path / "s.csv")
    with pytest.raises(TypeError, match="'k'.*int64"):
        emit_csv([(np.int64(0), 1.0)], ["k", "value"], tmp_path / "k.csv")


def test_row_producers_yield_plain_cells():
    cfg = parse_config(_doc(runs=3))
    result, trajs = fusion_study(cfg)
    producers = {
        "trajectory_rows": trajectory_rows(cfg, trajs),
        "fusion_study_rows": fusion_study_rows(result),
        "bclb_rows": bclb_rows(cfg),
        "RmseSummary.rows": evaluate_rmse(trajs, cfg.steady_window).rows,
    }
    for name, rows in producers.items():
        types = {type(cell) for row in rows for cell in row}
        assert types and types <= {str, int, float}, (name, types)


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
