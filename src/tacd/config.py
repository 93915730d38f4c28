"""Run configuration: a versioned JSON schema mapped onto scenario and
estimator objects. Every JSON object, the CLI overrides included, is read
against a spec that declares each allowed key once: the field it fills, the
reader of its value and whether it is required. Unknown keys are rejected,
an absent optional key leaves the owning dataclass's default, and violations
name the field path. Range checks live in the owning dataclasses; a spec
adds only the bounds the configuration keeps stricter than them.
"""
from __future__ import annotations

import json
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable, Optional

from .clock import ClockDynamics
from .scenario import (
    DelayCsvError,
    EmpiricalSource,
    LinkConfig,
    PdvProfile,
    RateSegment,
    ScenarioConfig,
    ThermalProfile,
    ThermalSegment,
    TruthOptions,
    load_delay_csv,
)
from .netcomm import VbSettings
from .runner import ESTIMATORS
from .thermal import TempSkewModel

SCHEMA_VERSION = 1

# A reader turns the JSON value at a field path into the value of its field.
Reader = Callable[[Any, str], Any]


class ConfigError(ValueError):
    """Configuration schema violation, carrying the offending field path."""


@dataclass(frozen=True)
class NetcommInit:
    """Filter initialization block (state prior plus VB hyperpriors); scale0
    holds the isotropic inverse-Wishart scales in s^2."""

    x0: tuple[float, float] = (3e-7, 3.5e-6)
    p0_diag: tuple[float, float] = (5e-6, 5e-6)
    chi0: tuple[float, ...] = (1.0, 5.0, 5.0)
    dof0: tuple[float, ...] = (4.0, 3.0, 3.0)
    scale0: tuple[float, ...] = (1e-7, 2e-7, 2e-7)

    def __post_init__(self) -> None:
        if len(self.x0) != 2 or len(self.p0_diag) != 2:
            raise ValueError("x0 and P0_diag must have two entries")
        if not len(self.chi0) == len(self.dof0) == len(self.scale0):
            raise ValueError("chi0, dof0, scale0 lengths must agree")
        if min(self.p0_diag + self.chi0 + self.scale0) <= 0.0:
            raise ValueError("P0_diag, chi0 and scale0 entries must be > 0")
        # a 2x2 inverse-Wishart needs dof > 1, and vb_refine takes digamma((dof - 1) / 2)
        if any(d <= 1.0 for d in self.dof0):
            raise ValueError("dof0 entries must be > 1")


@dataclass(frozen=True)
class FusionSettings:
    lam: float = 0.5
    feedback: bool = True

    def __post_init__(self) -> None:
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError(f"lambda must lie in [0, 1], got {self.lam}")


@dataclass(frozen=True)
class RunConfig:
    scenario: ScenarioConfig
    dynamics: ClockDynamics
    temp_model: TempSkewModel
    estimators: tuple[str, ...] = tuple(ESTIMATORS)
    runs: int = 1000
    master_seed: int = 0
    vb: VbSettings = VbSettings()
    netcomm_init: NetcommInit = NetcommInit()
    kalman_nominal_stddev: float = 5e-6
    fusion: FusionSettings = FusionSettings()
    steady_window: int = 10
    output_dir: str = "out"

    def with_overrides(self, **settings) -> "RunConfig":
        """This config with the given run keys replaced, each read as the
        config file's key of that name; None leaves a key as it was."""
        return replace(self, **_read({k: v for k, v in settings.items() if v is not None}, _RUN, ""))


def _number(v, path: str) -> float:
    # the bound also rejects NaN, the infinities and ints no float can hold
    if isinstance(v, bool) or not isinstance(v, (int, float)) or not abs(v) <= sys.float_info.max:
        raise ConfigError(f"{path}: expected a finite number, got {v!r}")
    return float(v)


def _of(kind: type, name: str) -> Reader:
    """Reader of a JSON value of one type; a boolean is not an integer."""
    def read(v, path: str):
        if not isinstance(v, kind) or (isinstance(v, bool) and kind is not bool):
            raise ConfigError(f"{path}: expected {name}, got {v!r}")
        return v
    return read


_int, _bool, _str = _of(int, "an integer"), _of(bool, "a boolean"), _of(str, "a string")


def _min(read: Reader, low: float, strict: bool = False) -> Reader:
    """read, then require the value to be >= low (> low when strict)."""
    def read_min(v, path: str):
        x = read(v, path)
        if x < low or (strict and x == low):
            raise ConfigError(f"{path}: must be {'>' if strict else '>='} {low}, got {x}")
        return x
    return read_min


_positive = _min(_number, 0, strict=True)


def _list(read: Reader) -> Reader:
    """Reader of a JSON list into a tuple of its items, each read by read."""
    def read_list(v, path: str) -> tuple:
        if not isinstance(v, (list, tuple)):
            raise ConfigError(f"{path}: expected a list, got {v!r}")
        return tuple(read(x, f"{path}[{i}]") for i, x in enumerate(v))
    return read_list


def _cell(v, path: str) -> tuple[int, float]:
    """A [packet_bytes, load_percent] table cell with whole packet_bytes."""
    pair = _list(_number)(v, path)
    if len(pair) != 2 or not pair[0].is_integer():
        raise ConfigError(f"{path}: expected a [packet_bytes, load_percent] pair with whole packet_bytes, got {v!r}")
    return int(pair[0]), pair[1]


def _estimators(v, path: str) -> tuple[str, ...]:
    """A non-empty selection of distinct names from the estimator table."""
    names = _list(_str)(v, path)
    if not names:
        raise ConfigError(f"{path}: expected a non-empty list")
    for i, name in enumerate(names):
        if name not in ESTIMATORS:
            raise ConfigError(f"{path}: unknown estimator {name!r}, expected one of {tuple(ESTIMATORS)}")
        if name in names[:i]:
            raise ConfigError(f"{path}: estimator {name!r} selected more than once")
    return names


def _build(cls, path: str, **kw):
    """cls(**kw), with the ValueError of a check it makes reported at path."""
    try:
        return cls(**kw)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _read(obj, spec: dict, path: str) -> dict:
    """The fields an object's keys fill, each value read by its spec entry.

    spec maps each allowed key to (field, reader, required); the entry under
    None, if any, reads every other key into one dict field. An absent
    optional key, or one read as None, is left out of the result. path ""
    is the top level, whose keys are their own paths.
    """
    where = path or "top level"
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: expected an object, got {obj!r}")
    rest = [k for k in obj if k not in spec]
    if rest and None not in spec:
        raise ConfigError(f"{where}: unknown key(s) {sorted(rest)}")
    missing = [k for k, (_, _, required) in spec.items() if required and k not in obj]
    if missing:
        raise ConfigError(f"{where}: missing required key(s) {missing}")
    at = (lambda k: f"{path}.{k}") if path else (lambda k: k)
    kw = {f: read(obj[k], at(k)) for k, (f, read, _) in spec.items() if k in obj}
    if None in spec:
        f, read, _ = spec[None]
        kw[f] = {k: read(obj[k], at(k)) for k in rest}
    return {f: v for f, v in kw.items() if v is not None}


def _object(spec: dict, cls=dict) -> Reader:
    """Reader of a JSON object into cls built from the fields spec reads."""
    return lambda v, path: _build(cls, path, **_read(v, spec, path))


def _block(spec: dict, cls=dict) -> Reader:
    """_object for an optional top-level block, where null reads as absent."""
    read = _object(spec, cls)
    return lambda v, path: None if v is None else read(v, path)


_SPAN = {key: (key, _min(_int, 0), True) for key in ("start", "end")}  # a segment's periods, start..end
_RATE_SEGMENT = {
    **_SPAN,
    "stddev_rates": ("stddev_rates", _list(_number), True),
    "weight_rates": ("weight_rates", _list(_number), True),
}
_PDV = {
    "stddevs": ("initial_stddevs", _list(_number), True),
    "weights": ("initial_weights", _list(_number), True),
    "schedule": ("rate_schedule", _list(_object(_RATE_SEGMENT, RateSegment)), False),
    "floor": ("stddev_floor", _number, False),
}
_EMPIRICAL = {  # read into EmpiricalSource fields once the table at csv_path is loaded
    "csv_path": ("csv_path", _str, True),
    "forward_cell": ("forward_cell", _cell, True),
    "reverse_cell": ("reverse_cell", _cell, True),
}
_THERMAL_SEGMENT = {
    **_SPAN,
    "kind": ("kind", _str, True),
    None: ("params", _number, False),  # the kind's curve parameters, checked by ThermalSegment
}
_THERMAL = {
    "segments": ("segments", _list(_object(_THERMAL_SEGMENT, ThermalSegment)), True),
    "cooling_constant": ("cooling_constant", _number, False),
    "initial_temp": ("initial_oscillator_temp", _number, False),
}
_TEMP_MODEL = {
    "kappa_ppm": ("kappa", lambda v, path: _number(v, path) * 1e-6, False),
    "T0": ("T0", _number, False),
    "theta0": ("theta0", _number, False),
    "sigma_T_sq": ("sigma_T_sq", _number, False),
}
_TRUTH = {
    "initial_offset": ("initial_offset", _number, False),
    "initial_skew_residual": ("initial_skew_residual", _number, False),
    "process_noise_sq": ("process_noise_sq", _min(_number, 0), False),
    "thermal_coupling": ("thermal_coupling", _bool, False),
}
_VB = {
    "max_iterations": ("max_iterations", _int, False),
    "convergence_tol": ("convergence_tol", _positive, False),
    "forgetting_factor": ("forgetting_factor", _number, False),
}
_NETCOMM_INIT = {
    key: (name, _list(_number), False)
    for key, name in (("x0", "x0"), ("P0_diag", "p0_diag"), ("chi0", "chi0"), ("dof0", "dof0"), ("scale0", "scale0"))
}
# the top-level keys the CLI can override
_RUN = {
    "runs": ("runs", _min(_int, 1), False),
    "master_seed": ("master_seed", _min(_int, 0), False),
    "estimators": ("estimators", _estimators, False),
    "output_dir": ("output_dir", _str, False),
}
# the keys RunConfig.with_overrides takes
RUN_KEYS = tuple(_RUN)
_TOP = {
    "schema_version": ("schema_version", _int, True),
    "horizon": ("horizon", _min(_int, 2), True),
    "tau": ("tau", _number, False),
    "dynamics": ("dynamics", _object({"m": ("m", _positive, True), "sigma_u_sq": ("sigma_u_sq", _number, True)}), True),
    "link": ("link", _block({"d1": ("d1", _number, True), "d2": ("d2", _number, True)}, LinkConfig), False),
    "pdv": ("pdv", _block(_PDV, PdvProfile), False),
    "empirical": ("empirical", _block(_EMPIRICAL), False),
    "thermal": ("thermal", _object(_THERMAL, ThermalProfile), True),
    "temp_model": ("temp_model", _block(_TEMP_MODEL, TempSkewModel), False),
    "truth": ("truth", _block(_TRUTH, TruthOptions), False),
    "vb": ("vb", _block(_VB, VbSettings), False),
    "netcomm_init": ("netcomm_init", _block(_NETCOMM_INIT, NetcommInit), False),
    "kalman_nominal_stddev": ("kalman_nominal_stddev", _positive, False),
    "fusion": ("fusion", _block({"lambda": ("lam", _number, False), "feedback": ("feedback", _bool, False)},
                                FusionSettings), False),
    "steady_window": ("steady_window", _min(_int, 1), False),
    **_RUN,
}


def _take(fields: dict, *names: str) -> dict:
    """Remove the named fields that are present and return them."""
    return {n: fields.pop(n) for n in names if n in fields}


def parse_config(doc: Any, base_dir: Optional[Path] = None) -> RunConfig:
    """Validate a parsed JSON document and build the run configuration."""
    top = _read(doc, _TOP, "")
    version = top.pop("schema_version")
    if version != SCHEMA_VERSION:
        raise ConfigError(f"schema_version: expected {SCHEMA_VERSION}, got {version}")
    if ("pdv" in top) == ("empirical" in top):
        raise ConfigError("top level: exactly one of 'pdv' and 'empirical' is required")
    if "pdv" in top and "link" not in top:
        raise ConfigError("link: required with 'pdv'")
    if "empirical" in top and "link" in top:
        raise ConfigError("link: not allowed with 'empirical', whose fixed delays are the table cells' minima")

    empirical = top.pop("empirical", None)
    if empirical is not None:
        csv_path = Path(empirical.pop("csv_path"))
        if base_dir is not None and not csv_path.is_absolute():
            csv_path = base_dir / csv_path
        try:
            table = load_delay_csv(csv_path)
        except (OSError, DelayCsvError) as exc:
            raise ConfigError(f"empirical.csv_path: {exc}") from None
        empirical = _build(EmpiricalSource, "empirical", table=table, **empirical)

    dynamics = _build(ClockDynamics, "dynamics", **top.pop("dynamics"), **_take(top, "tau"))
    temp_model = top.pop("temp_model", TempSkewModel())
    scenario = _build(ScenarioConfig, "scenario", tau=dynamics.tau, link=top.pop("link", None),
                      pdv=top.pop("pdv", None), temp_model=temp_model, gm_coefficient=dynamics.m,
                      empirical=empirical, **_take(top, "horizon", "thermal", "truth"))
    cfg = RunConfig(scenario=scenario, dynamics=dynamics, temp_model=temp_model, **top)
    if cfg.steady_window > scenario.horizon:
        raise ConfigError(f"steady_window: must be <= horizon ({scenario.horizon}), got {cfg.steady_window}")
    return cfg


def _unique_keys(pairs: list) -> dict:
    """A JSON object as a dict; json.loads alone would keep the last of two equal keys."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ConfigError(f"duplicate key {key!r}")
        obj[key] = value
    return obj


def load_config(path) -> RunConfig:
    """Load and validate a JSON run configuration file."""
    p = Path(path)
    try:
        doc = json.loads(p.read_text(encoding="utf-8"), object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{p}: invalid JSON: {exc}") from None
    except (ConfigError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{p}: {exc}") from None
    return parse_config(doc, base_dir=p.parent)
