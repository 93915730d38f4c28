"""Ingest measured one-way delays from CSV and resample them in a run.

Builds a small synthetic delay table in the documented CSV schema
(packet_bytes,load_percent,delay_seconds), loads it back, and drives a short
simulation whose one-way delays are resampled from two table cells. The
fixed part of each direction is the cell minimum; the asymmetry handed to
the estimators is the difference of the two minima.
"""
import pathlib

import numpy as np

from tacd import ExchangeBatch, ScenarioConfig, TempSkewModel, generate_scenario, load_delay_csv
from tacd.scenario import EmpiricalSource, LinkConfig, TruthOptions
from tacd.netcomm import gptp_offset

OUT = pathlib.Path(__file__).parent / "out"
OUT.mkdir(exist_ok=True)
CSV = OUT / "delays.csv"

rng = np.random.default_rng(11)
rows = ["packet_bytes,load_percent,delay_seconds"]
for pkt, load, base, spread in [(64, 5, 4e-6, 1.5e-6), (1518, 75, 9e-6, 5e-6)]:
    for v in base + rng.exponential(spread, 800):
        rows.append(f"{pkt},{load},{float(v)!r}")
CSV.write_text("\n".join(rows) + "\n", encoding="utf-8")

table = load_delay_csv(CSV)
print(f"loaded {len(table)} samples across cells {sorted(table.cells)}")
print(f"fixed parts: fwd {table.fixed_delay(1518, 75):.3e} s, rev {table.fixed_delay(64, 5):.3e} s")

from tacd.scenario import ThermalProfile, ThermalSegment

scenario = ScenarioConfig(
    tau=1.0,
    horizon=60,
    link=LinkConfig(0.0, 0.0),  # replaced by the table minima
    pdv=None,
    thermal=ThermalProfile(
        segments=(ThermalSegment(0, 59, "constant", {"value": 28.0}),),
        initial_oscillator_temp=28.0,
    ),
    temp_model=TempSkewModel(kappa=4e-8, T0=25.0, theta0=0.0, sigma_T_sq=0.1),
    truth=TruthOptions(initial_offset=1e-6),
    empirical=EmpiricalSource(table=table, forward_cell=(1518, 75), reverse_cell=(64, 5)),
)
data = generate_scenario(scenario, np.random.default_rng(3))

est = gptp_offset(ExchangeBatch.from_stamps(data.stamps), data.link.d)
err = est - data.offset_true
print(f"two-way offset estimate error over {data.horizon} periods: "
      f"mean {err.mean():.3e} s, RMS {np.sqrt((err**2).mean()):.3e} s")
print("(heavy-tailed resampled jitter passes straight into the estimate)")
