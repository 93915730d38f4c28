import re
from dataclasses import replace

import numpy as np
import pytest

from tacd.scenario import (
    DelayCsvError,
    EmpiricalDelayTable,
    EmpiricalSource,
    LinkConfig,
    PdvProfile,
    RateSegment,
    ScenarioConfig,
    ThermalProfile,
    ThermalSegment,
    TruthOptions,
    generate_scenario,
    _mixture_noise,
    _segment_temperature,
    load_delay_csv,
    pdv_params_table,
)
from tacd.netcomm import build_measurement
from tacd.thermal import TempSkewModel

from conftest import STUDY, constant_thermal, exchange, thermal_run


# ---------------------------------------------------------------- PDV profile

def test_pdv_initial_values():
    weights, stddevs = pdv_params_table(STUDY.scenario.pdv, 1)
    w, s = weights[0], stddevs[0]
    assert np.allclose(w, [0.4, 0.3, 0.3], atol=1e-15)
    assert np.allclose(s, [5e-6, 3e-6, 5e-6], atol=1e-18)


def test_pdv_zero_rates_fixed_point():
    prof = PdvProfile(
        initial_stddevs=(5e-6, 3e-6, 5e-6),
        initial_weights=(0.4, 0.3, 0.3),
        rate_schedule=(RateSegment(1, 100, (0.0, 0.0, 0.0), (0.0, 0.0)),),
    )
    weights, stddevs = pdv_params_table(prof, 58)
    w, s = weights[57], stddevs[57]
    assert np.allclose(w, [0.4, 0.3, 0.3], atol=1e-15)
    assert np.allclose(s, [5e-6, 3e-6, 5e-6], atol=1e-18)


def test_pdv_incremental_accumulation():
    # independent oracle: sum the per-period rates over periods 1..15
    w = pdv_params_table(STUDY.scenario.pdv, 16)[0][15]
    expected_b1 = 0.4 + sum(-11.6e-3 for _ in range(1, 16))
    assert expected_b1 == pytest.approx(0.226, abs=1e-12)
    assert w[0] == pytest.approx(expected_b1, rel=1e-12, abs=0.0)


def test_pdv_stddev_floor_engages():
    # the first component of the reference schedule crosses zero in segment 3
    s = pdv_params_table(STUDY.scenario.pdv, 51)[1][50]
    assert s[0] == pytest.approx(1e-7, abs=0.0)


def test_pdv_weight_tolerance_rejects():
    prof = PdvProfile(
        initial_stddevs=(1e-6, 1e-6),
        initial_weights=(0.5, 0.5),
        rate_schedule=(RateSegment(1, 100, (0.0, 0.0), (-0.02,)),),
    )
    with pytest.raises(ValueError, match="tolerance"):
        pdv_params_table(prof, 61)


def test_profile_validation():
    with pytest.raises(ValueError):
        PdvProfile(initial_stddevs=(1e-6,), initial_weights=(0.9,))
    with pytest.raises(ValueError):
        PdvProfile(
            initial_stddevs=(1e-6, 1e-6),
            initial_weights=(0.5, 0.5),
            rate_schedule=(
                RateSegment(1, 10, (0.0, 0.0), (0.0,)),
                RateSegment(5, 12, (0.0, 0.0), (0.0,)),
            ),
        )


# ------------------------------------------------------------- mixture draws

def test_noise_degenerate_mixture():
    rng = np.random.default_rng(0)
    n = _mixture_noise([1.0], [0.0], rng.random(), rng.standard_normal(2))
    assert np.array_equal(n, [0.0, 0.0])


def test_noise_mean_and_variance():
    rng = np.random.default_rng(12)
    w = np.array([0.4, 0.3, 0.3])
    s = np.array([5e-6, 3e-6, 5e-6])
    draws = _mixture_noise(w, s, rng.random(10**6), rng.standard_normal((10**6, 2)))
    lam_max = s.max()
    assert np.all(np.abs(draws.mean(axis=0)) < 5 * lam_max / 1000.0)
    target = float(np.sum(w * s**2))
    var = draws.var(axis=0)
    assert np.all(np.abs(var - target) < 0.01 * target * 2.5)
    # cross-correlation from the shared forward-delay term
    cov01 = np.mean(draws[:, 0] * draws[:, 1])
    assert cov01 == pytest.approx(target / 2.0, rel=0.03)


def test_noise_scalar_matches_component_structure():
    rng = np.random.default_rng(1)
    vals = np.array([_mixture_noise([1.0], [2e-6], rng.random(), rng.standard_normal(2)) for _ in range(4000)])
    assert vals.var(axis=0) == pytest.approx([4e-12, 4e-12], rel=0.1, abs=0.0)


# -------------------------------------------------------------- temperatures

def test_temperature_constant_and_first_order():
    segments = STUDY.scenario.thermal.segments
    assert _segment_temperature(segments[0], 5) == 30.0
    assert _segment_temperature(segments[3], 55) == 25.0


def test_temperature_multimodal_curve():
    # direct evaluation of the multimodal expression at k=25
    k = 25
    expected = 1.1 * np.sin(2 * k + np.pi) - 0.005 * (2 * k + 2) ** 2 + 40.0
    assert expected == pytest.approx(26.768612339074316, abs=1e-12)
    assert _segment_temperature(STUDY.scenario.thermal.segments[1], k) == pytest.approx(expected, abs=1e-12)


def test_temperature_colored_noise_stats():
    colored = STUDY.scenario.thermal.segments[2]
    rng = np.random.default_rng(9)
    k = 40
    draws = _segment_temperature(colored, k, rng.standard_normal(20000))
    assert draws.mean() == pytest.approx(20.0, abs=0.02)
    assert draws.var() == pytest.approx(0.02 + (k - 30) * 1e-2, rel=0.05)


def test_thermal_segment_parameters_required():
    with pytest.raises(ValueError, match=r"missing parameter\(s\) \['amp'\] for kind multimodal"):
        ThermalSegment(0, 5, "multimodal", {"quad": 0.005, "offset": 40.0})
    with pytest.raises(ValueError, match=r"unknown parameter\(s\) \['slope'\] for kind constant"):
        ThermalSegment(0, 5, "constant", {"value": 1.0, "slope": 2.0})
    with pytest.raises(ValueError, match="unknown thermal curve kind 'sine'"):
        ThermalSegment(0, 5, "sine", {})
    with pytest.raises(ValueError, match=r"unknown thermal curve kind \['constant'\]"):
        ThermalSegment(0, 5, ["constant"], {"value": 1.0})


def test_thermal_profile_tiling():
    prof = ThermalProfile(
        segments=(ThermalSegment(0, 10, "constant", {"value": 1.0}),),
    )
    with pytest.raises(ValueError, match="uncovered"):
        prof.validate_horizon(12)


def test_cooling_step():
    assert np.all(thermal_run(20.0, 20.0, 10.0, 5).temp_osc == 20.0)
    assert thermal_run(20.0, 30.0, 10.0, 1000).temp_osc[0, -1] == pytest.approx(20.0)
    # ten periods with cooling constant 10 keep exp(-1) of the gap
    assert thermal_run(20.0, 30.0, 10.0, 11).temp_osc[0, 10] == pytest.approx(23.678794411714423, abs=1e-12)


# ----------------------------------------------------------------- exchanges

def test_exchange_reference_link():
    rec = exchange(1e-6, LinkConfig(5e-6, 1e-6), 0.0, 0.0, 0, tau=1.0)
    assert rec.t1 == 0.0
    assert rec.t4 == pytest.approx(1e-2)
    assert rec.t2 == pytest.approx(6e-6)
    assert rec.t3 == pytest.approx(1e-2, abs=1e-18)


def test_exchange_transparent_link():
    rec = exchange(0.0, LinkConfig(0.0, 0.0), 0.0, 0.0, 3, tau=2.0)
    assert rec.t2 == rec.t1 and rec.t3 == rec.t4


def test_exchange_offset_recovery():
    # with w1 = w2 and d known, the two-way combination returns the offset
    rng = np.random.default_rng(8)
    link = LinkConfig(7e-6, 2e-6)
    for _ in range(200):
        offset = rng.uniform(-1e-5, 1e-5)
        w = rng.uniform(0.0, 1e-5)
        rec = exchange(offset, link, w, w, np.arange(1, 2), tau=1.0)
        assert build_measurement(rec, link.d)[0, 1] / 2 == pytest.approx(offset, rel=1e-9, abs=1e-15)


# ------------------------------------------------------------- empirical CSV

def _write_csv(path, rows, header="packet_bytes,load_percent,delay_seconds"):
    path.write_text("\n".join([header] + rows) + "\n", encoding="utf-8")


def test_load_single_row(tmp_path):
    p = tmp_path / "d.csv"
    _write_csv(p, ["64,5,0.0000049"])
    table = load_delay_csv(p)
    assert np.array_equal(table.samples(64, 5), [4.9e-6])


def test_load_header_only(tmp_path):
    p = tmp_path / "d.csv"
    _write_csv(p, [])
    with pytest.raises(DelayCsvError, match="header-only"):
        load_delay_csv(p)


def test_load_malformed_row_names_line(tmp_path):
    p = tmp_path / "d.csv"
    _write_csv(p, ["64,5,0.0000049", "64,5,not-a-number"])
    with pytest.raises(DelayCsvError, match=":3:"):
        load_delay_csv(p)


def test_load_empty_cell_names_line(tmp_path):
    p = tmp_path / "d.csv"
    _write_csv(p, ["64,,0.0000049"])
    with pytest.raises(DelayCsvError, match=":2:"):
        load_delay_csv(p)


def test_load_bad_header(tmp_path):
    p = tmp_path / "d.csv"
    _write_csv(p, ["64,5,1e-6"], header="a,b,c")
    with pytest.raises(DelayCsvError, match="header"):
        load_delay_csv(p)


def test_load_not_utf8_names_file(tmp_path):
    p = tmp_path / "d.csv"
    p.write_bytes(b"packet_bytes,load_percent,delay_seconds\n64,5,1e-6\xff\n")
    with pytest.raises(DelayCsvError, match=f"^{re.escape(str(p))}: 'utf-8' codec can't decode byte 0xff"):
        load_delay_csv(p)


@pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -1e-6])
def test_table_rejects_sample_not_finite_and_positive(bad):
    with pytest.raises(DelayCsvError, match=r"cell \(64, 5.0\): delay samples must be finite and > 0"):
        EmpiricalDelayTable({(64, 25.0): np.array([2e-6]), (64, 5.0): np.array([bad, 1e-6])})


def test_table_samples_are_read_only():
    # a write would get round the check above: fixed_delay reads the minimum
    table = EmpiricalDelayTable({(64, 5.0): np.array([2e-6, 1e-6])})
    for samples in (table.cells[(64, 5.0)], table.samples(64, 5.0)):
        with pytest.raises(ValueError, match="read-only"):
            samples[0] = -1.0
    with pytest.raises(TypeError):
        table.cells[(64, 5.0)] = np.array([-1.0])
    assert table.fixed_delay(64, 5.0) == 1e-6


def test_csv_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    rows = []
    expected = {}
    for pkt in (64, 576, 1518):
        for load in (5, 50):
            vals = rng.uniform(1e-6, 1e-4, 500)
            expected[(pkt, float(load))] = np.sort(vals)
            rows += [f"{pkt},{load},{float(v)!r}" for v in vals]
    p = tmp_path / "d.csv"
    _write_csv(p, rows)
    table = load_delay_csv(p)
    assert len(table) == 3000
    for key, vals in expected.items():
        assert np.array_equal(table.samples(*key), vals)


def test_empirical_scenario_mode(tmp_path):
    p = tmp_path / "d.csv"
    rng = np.random.default_rng(4)
    rows = [f"64,5,{float(v)!r}" for v in rng.uniform(4e-6, 9e-6, 400)]
    rows += [f"64,25,{float(v)!r}" for v in rng.uniform(2e-6, 5e-6, 400)]
    _write_csv(p, rows)
    table = load_delay_csv(p)
    cfg = ScenarioConfig(
        tau=1.0,
        horizon=20,
        link=None,
        pdv=None,
        thermal=constant_thermal(20),
        temp_model=TempSkewModel(),
        truth=TruthOptions(thermal_coupling=False),
        empirical=EmpiricalSource(table=table, forward_cell=(64, 5), reverse_cell=(64, 25)),
    )
    data = generate_scenario(cfg, [np.random.default_rng(0)])
    assert data.d == table.fixed_delay(64, 5) - table.fixed_delay(64, 25)
    ex = data.exchanges
    assert ex.t1.shape == (1, 20)
    # the delays in both directions are the table's samples
    offset = data.offset_true[0]
    for delay, cell in ((ex.t2[0] - ex.t1[0] - offset, (64, 5)), (ex.t4[0] - ex.t3[0] + offset, (64, 25))):
        samples = table.samples(*cell)
        assert np.all(np.min(np.abs(delay[:, None] - samples[None, :]), axis=1) < 1e-13)
    # a scenario draws its delays from one source: a PDV profile as well is rejected
    with pytest.raises(ValueError, match="exactly one of a PDV profile and an empirical source"):
        replace(cfg, pdv=STUDY.scenario.pdv)
    # the table's minima are the fixed delays: a link as well is rejected, and
    # a PDV profile needs one
    with pytest.raises(ValueError, match="not allowed with an empirical source"):
        replace(cfg, link=LinkConfig(0.0, 0.0))
    with pytest.raises(ValueError, match="a link is required with a PDV profile"):
        replace(cfg, pdv=STUDY.scenario.pdv, empirical=None)


# ------------------------------------------------------------------ scenario

def _scenario_cfg(horizon=50):
    return replace(STUDY.scenario, horizon=horizon, truth=TruthOptions(process_noise_sq=1e-16))


def test_scenario_deterministic():
    cfg = _scenario_cfg()
    a = generate_scenario(cfg, [np.random.default_rng(77)])
    b = generate_scenario(cfg, [np.random.default_rng(77)])
    assert np.array_equal(a.skew_true, b.skew_true)
    assert np.array_equal(a.temp_meas, b.temp_meas)
    ea, eb = a.exchanges, b.exchanges
    assert all(np.array_equal(getattr(ea, t), getattr(eb, t)) for t in ("t1", "t2", "t3", "t4"))


def test_scenario_truth_offset_integrates_skew():
    cfg = _scenario_cfg()
    data = generate_scenario(cfg, [np.random.default_rng(3)])
    offset, skew = data.offset_true[0], data.skew_true[0]
    assert offset[0] == 1e-6
    recon = 1e-6 + np.cumsum(skew[1:]) * cfg.tau
    assert np.allclose(offset[1:], recon, rtol=0, atol=1e-18)


def test_scenario_thermal_coupling():
    cfg = _scenario_cfg()
    data = generate_scenario(cfg, [np.random.default_rng(3)])
    quad = 4e-8 * (data.temp_osc - 25.0) ** 2
    # residual wander is tiny compared to the quadratic term here
    assert np.allclose(data.skew_true, quad, atol=5e-7)
