"""Ground-truth scenario generation.

Produces two-way timestamp exchanges under non-stationary Gaussian-mixture
delay variation with a known fixed delay asymmetry, oscillator temperature
trajectories with Newton cooling, and (optionally) one-way delays resampled
from an empirical CSV table.
"""
from __future__ import annotations

import csv
import functools
import types
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .thermal import TempSkewModel, skew_from_temperature

WEIGHT_TOLERANCE = 0.05
DEFAULT_STDDEV_FLOOR = 1e-7

# Correlation of the measurement noise vector's two entries: the shared
# forward-delay term induces cross-correlation Lambda^2/2.
NOISE_CORR = np.array([[1.0, 0.5], [0.5, 1.0]])
_NOISE_CORR_CHOL = np.linalg.cholesky(NOISE_CORR)

# Each thermal curve kind and the parameters it requires.
_THERMAL_PARAMS = {
    "constant": ("value",),
    "multimodal": ("amp", "quad", "offset"),
    "colored-noise": ("mean", "var_base", "var_slope", "var_ref_k"),
    "first-order": ("slope", "intercept"),
}


class DelayCsvError(ValueError):
    """Raised for malformed empirical delay CSV input."""


def _check_span(seg) -> None:
    """A segment covers periods start..end, so start may not exceed end."""
    if seg.start > seg.end:
        raise ValueError(f"segment start {seg.start} > end {seg.end}")


def _check_disjoint(segments, noun: str) -> None:
    """No period may fall in two of the segments."""
    spans = sorted((s.start, s.end) for s in segments)
    for (_, e0), (s1, _) in zip(spans, spans[1:]):
        if s1 <= e0:
            raise ValueError(f"overlapping {noun} segments near period {s1}")


@dataclass(frozen=True)
class RateSegment:
    """Per-period parameter changing rates in effect for periods start..end."""

    start: int
    end: int
    stddev_rates: tuple[float, ...]
    weight_rates: tuple[float, ...]

    def __post_init__(self) -> None:
        _check_span(self)


@dataclass(frozen=True)
class PdvProfile:
    """Non-stationary GMM parameters of the packet-delay-variation noise.

    Stddevs and weights evolve incrementally: within a rate segment each
    period adds the segment rate to the previous period's value. The last
    weight is derived so the simplex is preserved, raw weights are clipped
    and renormalized, and stddevs are clamped at the floor.
    """

    initial_stddevs: tuple[float, ...]
    initial_weights: tuple[float, ...]
    rate_schedule: tuple[RateSegment, ...] = ()
    stddev_floor: float = DEFAULT_STDDEV_FLOOR

    def __post_init__(self) -> None:
        n = len(self.initial_stddevs)
        if n < 1:
            raise ValueError("at least one mixture component required")
        if len(self.initial_weights) != n:
            raise ValueError("initial_weights and initial_stddevs lengths differ")
        if self.stddev_floor <= 0.0:
            raise ValueError("stddev_floor must be > 0")
        w = np.asarray(self.initial_weights)
        if abs(w.sum() - 1.0) > 1e-12 or np.any(w < 0.0) or np.any(w > 1.0):
            raise ValueError(f"initial weights must lie on the simplex, got {self.initial_weights}")
        if any(s < self.stddev_floor for s in self.initial_stddevs):
            raise ValueError("initial stddevs must be >= stddev_floor")
        for seg in self.rate_schedule:
            if len(seg.stddev_rates) != n or len(seg.weight_rates) != n - 1:
                raise ValueError("rate vector lengths must match the component count")
        _check_disjoint(self.rate_schedule, "rate")

    @property
    def num_components(self) -> int:
        return len(self.initial_stddevs)

    def _rates_at(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        for seg in self.rate_schedule:
            if seg.start <= k <= seg.end:
                return np.asarray(seg.stddev_rates), np.asarray(seg.weight_rates)
        z = np.zeros(self.num_components)
        return z, np.zeros(max(self.num_components - 1, 0))


@functools.lru_cache(maxsize=16)
def pdv_params_table(profile: PdvProfile, horizon: int) -> tuple[np.ndarray, np.ndarray]:
    """Evolved (weights, stddevs) arrays of shape (horizon, N_g).

    The table depends on the profile alone, so it is built once per
    (profile, horizon) and handed out read-only.
    """
    n = profile.num_components
    weights = np.empty((horizon, n))
    stddevs = np.empty((horizon, n))
    lead = np.asarray(profile.initial_weights[: n - 1], dtype=float)
    std = np.asarray(profile.initial_stddevs, dtype=float)
    for k in range(horizon):
        if k > 0:
            srate, wrate = profile._rates_at(k)
            std = np.maximum(std + srate, profile.stddev_floor)
            lead = lead + wrate
        raw = np.append(lead, 1.0 - lead.sum())
        if np.any(raw < -WEIGHT_TOLERANCE) or np.any(raw > 1.0 + WEIGHT_TOLERANCE):
            raise ValueError(
                f"raw mixture weights {raw} leave [0, 1] beyond tolerance "
                f"{WEIGHT_TOLERANCE} at period {k}"
            )
        w = np.clip(raw, 0.0, 1.0)
        weights[k] = w / w.sum()
        stddevs[k] = std
    weights.flags.writeable = False
    stddevs.flags.writeable = False
    return weights, stddevs


def _mixture_noise(weights, stddevs, u, z) -> np.ndarray:
    """Noise vectors from uniform draws u and standard-normal pairs z (..., 2).

    u is a scalar, (n,) or (R, n); weights/stddevs are one mixture (N_g,)
    shared by every draw or one row per position along u's last axis
    (n, N_g). The uniform picks the component; the pair is scaled by its
    stddev and by the Cholesky factor of the correlation.
    """
    w = np.asarray(weights, dtype=float)
    s = np.asarray(stddevs, dtype=float)
    x = np.asarray(u) * w.sum(axis=-1)
    # searchsorted(cumsum(w), x, side="right") row by row; the cumsum is sorted
    j = np.minimum((np.cumsum(w, axis=-1) <= x[..., None]).sum(axis=-1), w.shape[-1] - 1)
    sig = s[j] if s.ndim == 1 else s[np.arange(s.shape[0]), j]
    # stacked matrix-vector products: the same BLAS call as L @ z for one pair
    return sig[..., None] * np.matmul(_NOISE_CORR_CHOL, np.asarray(z, dtype=float)[..., None])[..., 0]


@dataclass(frozen=True)
class ThermalSegment:
    """One piece of the external temperature trajectory (periods start..end)."""

    start: int
    end: int
    kind: str
    params: dict

    def __post_init__(self) -> None:
        _check_span(self)
        if not isinstance(self.kind, str) or self.kind not in _THERMAL_PARAMS:
            raise ValueError(f"unknown thermal curve kind {self.kind!r}, expected one of {tuple(_THERMAL_PARAMS)}")
        names = _THERMAL_PARAMS[self.kind]
        unknown = sorted(set(self.params) - set(names))
        if unknown:
            raise ValueError(f"unknown parameter(s) {unknown} for kind {self.kind}")
        missing = [name for name in names if name not in self.params]
        if missing:
            raise ValueError(f"missing parameter(s) {missing} for kind {self.kind}")


@dataclass(frozen=True)
class ThermalProfile:
    """External temperature segments plus the oscillator cooling model."""

    segments: tuple[ThermalSegment, ...]
    cooling_constant: float = 10.0
    initial_oscillator_temp: float = 30.0

    def __post_init__(self) -> None:
        if self.cooling_constant <= 0.0:
            raise ValueError("cooling_constant must be > 0")
        _check_disjoint(self.segments, "thermal")

    def validate_horizon(self, horizon: int) -> None:
        """Segments must tile 0..horizon-1 with no gaps."""
        covered = np.zeros(horizon, dtype=bool)
        for seg in self.segments:
            lo, hi = max(seg.start, 0), min(seg.end, horizon - 1)
            if lo <= hi:
                covered[lo : hi + 1] = True
        if not covered.all():
            gap = int(np.flatnonzero(~covered)[0])
            raise ValueError(f"thermal segments leave period {gap} uncovered")

def _segment_temperature(seg: ThermalSegment, k, normal=None):
    """One segment's external temperature at period(s) k (an int or an int
    array); a colored-noise segment also takes one standard-normal draw per
    period (and run)."""
    p = seg.params
    if seg.kind == "constant":
        return float(p["value"])
    if seg.kind == "multimodal":
        return p["amp"] * np.sin(2.0 * k + np.pi) - p["quad"] * (2.0 * k + 2.0) ** 2 + p["offset"]
    if seg.kind == "colored-noise":
        var = p["var_base"] + (k - p["var_ref_k"]) * p["var_slope"]
        bad = np.flatnonzero(np.ravel(var) <= 0.0)
        if bad.size:
            i = bad[0]
            raise ValueError(f"colored-noise variance is non-positive ({np.ravel(var)[i]}) at period {np.ravel(k)[i]}")
        return p["mean"] + normal * np.sqrt(var)
    # first-order
    return p["slope"] * k + p["intercept"]


@dataclass(frozen=True)
class LinkConfig:
    """Fixed one-way delays; the asymmetry d = d1 - d2 is known to estimators."""

    d1: float
    d2: float

    @property
    def d(self) -> float:
        return self.d1 - self.d2


@dataclass(frozen=True)
class ExchangeBatch:
    """Four timestamps of two-way exchanges on the local timeline, with their
    period index k.

    The fields share one shape: () for one exchange, (h,) for one run,
    (runs, h) for a batch; the last axis is the period.
    """

    t1: np.ndarray
    t2: np.ndarray
    t3: np.ndarray
    t4: np.ndarray
    period_index: np.ndarray


def _exchange_times(offset, link: LinkConfig, w1, w2, k, tau: float):
    """Timestamps (t1, t2, t3, t4) of the period-k exchanges, elementwise.

    t1 and t4 sit on the local timeline at k*tau and k*tau + tau/100, a
    turnaround short enough that the offset is constant within the period.
    w1, w2 are the random one-way delay parts; in synthetic mode they are
    deviations from the fixed part and may be negative.
    """
    t1 = k * tau
    t4 = t1 + tau / 100.0
    t2 = t1 + link.d1 + w1 + offset
    t3 = t4 - link.d2 - w2 + offset
    return t1, t2, t3, t4


class EmpiricalDelayTable:
    """One-way delay samples grouped by (packet_bytes, load_percent) cell,
    each cell sorted and read-only, and cells a read-only view, so the
    samples stay as checked."""

    def __init__(self, cells: dict[tuple[int, float], np.ndarray]):
        if not cells:
            raise DelayCsvError("empty delay table: no sample rows")
        self._cells = {k: np.sort(np.asarray(v, dtype=float)) for k, v in cells.items()}
        for key, samples in self._cells.items():
            if not np.all(np.isfinite(samples) & (samples > 0.0)):
                raise DelayCsvError(f"cell {key}: delay samples must be finite and > 0")
            samples.flags.writeable = False

    @property
    def cells(self) -> types.MappingProxyType[tuple[int, float], np.ndarray]:
        return types.MappingProxyType(self._cells)

    def samples(self, packet_bytes: int, load_percent: float) -> np.ndarray:
        key = (int(packet_bytes), float(load_percent))
        if key not in self._cells:
            raise KeyError(f"no delay samples for cell {key}; available: {sorted(self._cells)}")
        return self._cells[key]

    def fixed_delay(self, packet_bytes: int, load_percent: float) -> float:
        """Fixed part of a cell's delay: the cell minimum."""
        return float(self.samples(packet_bytes, load_percent)[0])

    def __len__(self) -> int:
        return sum(len(v) for v in self._cells.values())


_CSV_HEADER = ["packet_bytes", "load_percent", "delay_seconds"]


def load_delay_csv(path) -> EmpiricalDelayTable:
    """Parse an empirical delay CSV (header packet_bytes,load_percent,delay_seconds)."""
    cells: dict[tuple[int, float], list[float]] = {}
    with open(path, "r", encoding="utf-8", newline="") as fh:
        try:
            reader = csv.reader(fh.readlines())
        except UnicodeDecodeError as exc:
            raise DelayCsvError(f"{path}: {exc}") from None
        try:
            header = next(reader)
        except StopIteration:
            raise DelayCsvError(f"{path}: empty file, expected header {','.join(_CSV_HEADER)}")
        if [h.strip() for h in header] != _CSV_HEADER:
            raise DelayCsvError(f"{path}: bad header {header!r}, expected {_CSV_HEADER}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 3:
                raise DelayCsvError(f"{path}:{lineno}: expected 3 columns, got {len(row)}")
            if any(cell.strip() == "" for cell in row):
                raise DelayCsvError(f"{path}:{lineno}: empty cell")
            try:
                packet = int(row[0])
                load = float(row[1])
                delay = float(row[2])
            except ValueError as exc:
                raise DelayCsvError(f"{path}:{lineno}: {exc}") from None
            if not np.isfinite(load):
                raise DelayCsvError(f"{path}:{lineno}: load_percent must be finite, got {load}")
            if not 0.0 < delay < np.inf:
                raise DelayCsvError(f"{path}:{lineno}: delay must be finite and > 0, got {delay}")
            cells.setdefault((packet, load), []).append(delay)
    if not cells:
        raise DelayCsvError(f"{path}: header-only file, no sample rows")
    return EmpiricalDelayTable({k: np.asarray(v) for k, v in cells.items()})


@dataclass(frozen=True)
class EmpiricalSource:
    """Empirical delay-resampling mode: one table cell per direction."""

    table: EmpiricalDelayTable
    forward_cell: tuple[int, float]
    reverse_cell: tuple[int, float]

    def __post_init__(self) -> None:
        for direction, cell in (("forward", self.forward_cell), ("reverse", self.reverse_cell)):
            if tuple(cell) not in self.table.cells:
                raise ValueError(f"no delay samples for the {direction} cell {tuple(cell)}; "
                                 f"the table has {sorted(self.table.cells)}")


@dataclass(frozen=True)
class TruthOptions:
    """Truth-trajectory options.

    With thermal_coupling the true skew is theta0 + kappa*(T_osc - T0)^2 plus
    a Gauss-Markov residual of per-period variance process_noise_sq; without
    it the residual alone is the skew.
    """

    initial_offset: float = 1e-6
    initial_skew_residual: float = 0.0
    process_noise_sq: float = 0.0
    thermal_coupling: bool = True


@dataclass(frozen=True)
class ScenarioConfig:
    """One case's truth and delay model. An empirical source takes no link:
    its fixed one-way delays are the table cells' minima."""

    tau: float
    horizon: int
    link: Optional[LinkConfig]
    pdv: Optional[PdvProfile]
    thermal: ThermalProfile
    temp_model: TempSkewModel
    truth: TruthOptions = TruthOptions()
    gm_coefficient: float = 1.0
    empirical: Optional[EmpiricalSource] = None

    def __post_init__(self) -> None:
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if (self.pdv is None) == (self.empirical is None):
            raise ValueError("exactly one of a PDV profile and an empirical source is required")
        if (self.link is None) != (self.pdv is None):
            raise ValueError("a link is required with a PDV profile and not allowed with an empirical source")
        self.thermal.validate_horizon(self.horizon)


@dataclass
class ScenarioBatch:
    """Ground truth of a batch of R runs over h periods: per-period states,
    temperatures and exchanges, each (R, h), and the case's known path
    asymmetry d = d1 - d2. temp_osc is read-only; without a colored-noise
    thermal segment it is one row broadcast over the runs (stride 0 on the
    run axis)."""

    skew_true: np.ndarray
    offset_true: np.ndarray
    temp_osc: np.ndarray
    temp_meas: np.ndarray
    exchanges: ExchangeBatch
    d: float

    @property
    def horizon(self) -> int:
        return self.skew_true.shape[1]


def generate_scenario(cfg: ScenarioConfig, rngs: Sequence[np.random.Generator]) -> ScenarioBatch:
    """Generate one seeded run per generator: truth trajectories plus
    exchange timestamps, row i drawn from rngs[i].

    Each run's draw order is fixed, period by period: skew residual, then the
    mixture component and noise pair (or the two empirical delay indices),
    the colored-noise temperature where a segment has one, the sensor noise.
    The period loop makes only these draws; consecutive normal draws share
    one call (a period's pair, colored draw and sensor draw with the next
    period's residual), which consumes the stream exactly as one call each.
    The component uniform is one Generator.random() call, bound once per run;
    the normals go into views of one scratch row, made once per batch and
    copied into the run's row once per run.
    Everything else is computed once per batch on (R, h) arrays, elementwise
    per run, so a run's rows do not depend on the batch it is in and a given
    (config, seed) reproduces bit-identical timestamps. A thermal path that
    draws nothing (no colored-noise segment) is computed once, on one row
    that every run shares.
    """
    h, n = cfg.horizon, len(rngs)
    model = cfg.temp_model
    truth = cfg.truth
    ks = np.arange(h)

    colored = np.zeros(h, dtype=bool)
    for seg in cfg.thermal.segments:
        if seg.kind == "colored-noise":
            colored[max(seg.start, 0) : seg.end + 1] = True

    # positions of each period's normal draws in a run's flat stream
    pair = 2 if cfg.empirical is None else 0
    counts = pair + colored + 2
    counts[-1] -= 1  # no residual after the last period
    start = np.cumsum(counts) + 1 - counts
    sensor = start + pair + colored
    spans = list(zip(start.tolist(), (start + counts).tolist()))

    normals = np.empty((n, counts.sum() + 1))
    scratch = np.empty(normals.shape[1])
    views = [scratch[a:b] for a, b in spans]
    picks = []
    if cfg.empirical is not None:
        src = cfg.empirical
        fwd = src.table.samples(*src.forward_cell)
        rev = src.table.samples(*src.reverse_cell)
        for rng, row in zip(rngs, normals):
            scratch[0] = rng.standard_normal()
            for view in views:
                picks.append(rng.integers(len(fwd)))
                picks.append(rng.integers(len(rev)))
                rng.standard_normal(out=view)
            row[:] = scratch
        picks = np.array(picks, dtype=np.intp).reshape(n, h, 2)
        link = LinkConfig(d1=src.table.fixed_delay(*src.forward_cell), d2=src.table.fixed_delay(*src.reverse_cell))
        w1 = fwd[picks[..., 0]] - link.d1
        w2 = rev[picks[..., 1]] - link.d2
    else:
        for rng, row in zip(rngs, normals):
            random = rng.random
            scratch[0] = rng.standard_normal()
            for view in views:
                picks.append(random())
                rng.standard_normal(out=view)
            row[:] = scratch
        link = cfg.link
        weights, stddevs = pdv_params_table(cfg.pdv, h)
        noise = _mixture_noise(weights, stddevs, np.reshape(picks, (n, h)), normals[:, start[:, None] + [0, 1]])
        steps = noise[..., 0].copy()
        steps[:, 0] = 0.0
        w1 = np.cumsum(steps, axis=1)
        w2 = w1 - noise[..., 1]

    # Gauss-Markov skew residual
    u = normals[:, np.append(0, sensor[:-1] + 1)] * np.sqrt(truth.process_noise_sq)
    gamma = np.empty((n, h))
    gamma[:, 0] = truth.initial_skew_residual
    for k in range(1, h):
        gamma[:, k] = cfg.gm_coefficient * gamma[:, k - 1] + u[:, k]

    # without a colored-noise segment the thermal path is the same in every
    # run: it is computed on one row, which the runs share
    paths = n if any(seg.kind == "colored-noise" for seg in cfg.thermal.segments) else 1
    t_ext = np.empty((paths, h))
    for seg in cfg.thermal.segments:
        sl = slice(max(seg.start, 0), min(seg.end, h - 1) + 1)
        draws = normals[:, sensor[sl] - 1] if seg.kind == "colored-noise" else None
        t_ext[:, sl] = _segment_temperature(seg, ks[sl], draws)
    # Newton cooling toward the ambient temperature, one period at a time
    decay = float(np.exp(-1.0 / cfg.thermal.cooling_constant))
    t_osc = np.empty((paths, h))
    t_osc[:, 0] = cfg.thermal.initial_oscillator_temp
    for k in range(1, h):
        t_osc[:, k] = t_ext[:, k] + (t_osc[:, k - 1] - t_ext[:, k]) * decay
    t_meas = t_osc + normals[:, sensor] * np.sqrt(model.sigma_T_sq)

    skew = skew_from_temperature(t_osc, model) + gamma if truth.thermal_coupling else gamma
    bad = np.flatnonzero(~(np.abs(skew) < 1.0))
    if bad.size:
        raise ValueError(f"skew must satisfy |skew| < 1, got {skew.flat[bad[0]]}")
    increments = cfg.tau * skew
    increments[:, 0] = truth.initial_offset
    offset = np.cumsum(increments, axis=1)

    t1, t2, t3, t4 = _exchange_times(offset, link, w1, w2, ks, cfg.tau)
    if not np.all(t4 > t1):
        raise ValueError("t4 must follow t1 on the local timeline")
    shape = (n, h)
    exchanges = ExchangeBatch(np.broadcast_to(t1, shape), t2, t3, np.broadcast_to(t4, shape),
                              np.broadcast_to(ks.astype(float), shape))
    return ScenarioBatch(skew_true=skew, offset_true=offset, temp_osc=np.broadcast_to(t_osc, shape), temp_meas=t_meas,
                         exchanges=exchanges, d=link.d)
