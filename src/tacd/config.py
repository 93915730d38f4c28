"""Run configuration: a versioned JSON schema mapped onto scenario and
estimator objects. Unknown keys are rejected and violations name the field
path that caused them.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Optional

from .clock import ClockDynamics
from .scenario import (
    DEFAULT_STDDEV_FLOOR,
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


class ConfigError(ValueError):
    """Configuration schema violation, carrying the offending field path."""


def _require(mapping: dict, allowed: dict[str, bool], path: str) -> None:
    unknown = set(mapping) - set(allowed)
    if unknown:
        raise ConfigError(f"{path}: unknown key(s) {sorted(unknown)}")
    missing = [k for k, req in allowed.items() if req and k not in mapping]
    if missing:
        raise ConfigError(f"{path}: missing required key(s) {missing}")


def _number(mapping: dict, key: str, path: str, default=None, minimum=None, positive=False):
    if key not in mapping:
        if default is None:
            raise ConfigError(f"{path}.{key}: missing")
        return default
    v = mapping[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{path}.{key}: expected a number, got {v!r}")
    if positive and v <= 0:
        raise ConfigError(f"{path}.{key}: must be > 0, got {v}")
    if minimum is not None and v < minimum:
        raise ConfigError(f"{path}.{key}: must be >= {minimum}, got {v}")
    return float(v)


def _int(mapping: dict, key: str, path: str, default=None, minimum=None) -> int:
    if key not in mapping:
        if default is None:
            raise ConfigError(f"{path}.{key}: missing")
        return default
    v = mapping[key]
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"{path}.{key}: expected an integer, got {v!r}")
    if minimum is not None and v < minimum:
        raise ConfigError(f"{path}.{key}: must be >= {minimum}, got {v}")
    return v


def _float_list(obj: Any, path: str) -> list[float]:
    if not isinstance(obj, list) or not all(
        isinstance(x, (int, float)) and not isinstance(x, bool) for x in obj
    ):
        raise ConfigError(f"{path}: expected a list of numbers")
    return [float(x) for x in obj]


@dataclass(frozen=True)
class NetcommInit:
    """Filter initialization block (state prior plus VB hyperpriors); scale0
    holds the isotropic inverse-Wishart scales in s^2."""

    x0: tuple[float, float] = (3e-7, 3.5e-6)
    p0_diag: tuple[float, float] = (5e-6, 5e-6)
    chi0: tuple[float, ...] = (1.0, 5.0, 5.0)
    dof0: tuple[float, ...] = (4.0, 3.0, 3.0)
    scale0: tuple[float, ...] = (1e-7, 2e-7, 2e-7)


@dataclass(frozen=True)
class FusionSettings:
    lam: float = 0.5
    feedback: bool = True


@dataclass(frozen=True)
class RunConfig:
    scenario: ScenarioConfig
    dynamics: ClockDynamics
    temp_model: TempSkewModel
    estimators: tuple[str, ...]
    runs: int
    master_seed: int
    vb: VbSettings
    netcomm_init: NetcommInit
    kalman_nominal_stddev: float
    fusion: FusionSettings
    steady_window: int
    workers: int = 1
    output_dir: str = "out"

    def with_overrides(
        self,
        runs: Optional[int] = None,
        seed: Optional[int] = None,
        estimators: Optional[tuple[str, ...]] = None,
        output_dir: Optional[str] = None,
        workers: Optional[int] = None,
    ) -> "RunConfig":
        """This config with the given fields replaced, under the bounds
        parse_config applies to them."""
        out = self
        for key, value, low in (("runs", runs, 1), ("master_seed", seed, 0), ("workers", workers, 1)):
            if value is not None:
                out = replace(out, **{key: _int({key: value}, key, "override", minimum=low)})
        if estimators is not None:
            out = replace(out, estimators=_estimator_selection(estimators))
        if output_dir is not None:
            out = replace(out, output_dir=output_dir)
        return out


def _estimator_selection(names) -> tuple[str, ...]:
    """A non-empty selection of names from the estimator table."""
    if not isinstance(names, (list, tuple)) or not names:
        raise ConfigError("estimators: expected a non-empty list")
    for name in names:
        if name not in ESTIMATORS:
            raise ConfigError(f"estimators: unknown estimator {name!r}, expected one of {tuple(ESTIMATORS)}")
    return tuple(names)


def _parse_pdv(obj: dict, path: str) -> PdvProfile:
    _require(obj, {"stddevs": True, "weights": True, "schedule": False, "floor": False}, path)
    stddevs = _float_list(obj["stddevs"], f"{path}.stddevs")
    weights = _float_list(obj["weights"], f"{path}.weights")
    segments = []
    for i, seg in enumerate(obj.get("schedule", [])):
        spath = f"{path}.schedule[{i}]"
        if not isinstance(seg, dict):
            raise ConfigError(f"{spath}: expected an object")
        _require(seg, {"start": True, "end": True, "stddev_rates": True, "weight_rates": True}, spath)
        segments.append(
            RateSegment(
                start=_int(seg, "start", spath, minimum=0),
                end=_int(seg, "end", spath, minimum=0),
                stddev_rates=tuple(_float_list(seg["stddev_rates"], f"{spath}.stddev_rates")),
                weight_rates=tuple(_float_list(seg["weight_rates"], f"{spath}.weight_rates")),
            )
        )
    try:
        return PdvProfile(
            initial_stddevs=tuple(stddevs),
            initial_weights=tuple(weights),
            rate_schedule=tuple(segments),
            stddev_floor=_number(obj, "floor", path, default=DEFAULT_STDDEV_FLOOR, positive=True),
        )
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _parse_thermal(obj: dict, path: str) -> ThermalProfile:
    _require(obj, {"segments": True, "cooling_constant": False, "initial_temp": False}, path)
    if not isinstance(obj["segments"], list) or not obj["segments"]:
        raise ConfigError(f"{path}.segments: expected a non-empty list")
    segs = []
    for i, seg in enumerate(obj["segments"]):
        spath = f"{path}.segments[{i}]"
        if not isinstance(seg, dict):
            raise ConfigError(f"{spath}: expected an object")
        start, end = _int(seg, "start", spath, minimum=0), _int(seg, "end", spath, minimum=0)
        params = {k: _number(seg, k, spath) for k in seg if k not in ("start", "end", "kind")}
        try:
            segs.append(ThermalSegment(start=start, end=end, kind=seg.get("kind"), params=params))
        except ValueError as exc:
            raise ConfigError(f"{spath}: {exc}") from None
    cooling = _number(obj, "cooling_constant", path, default=ThermalProfile.cooling_constant, positive=True)
    initial = _number(obj, "initial_temp", path, default=ThermalProfile.initial_oscillator_temp)
    try:
        return ThermalProfile(segments=tuple(segs), cooling_constant=cooling, initial_oscillator_temp=initial)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None


_TOP_KEYS = {
    "schema_version": True,
    "horizon": True,
    "runs": False,
    "master_seed": False,
    "tau": False,
    "dynamics": True,
    "link": False,
    "pdv": False,
    "empirical": False,
    "thermal": True,
    "temp_model": False,
    "truth": False,
    "estimators": False,
    "vb": False,
    "netcomm_init": False,
    "kalman_nominal_stddev": False,
    "fusion": False,
    "steady_window": False,
    "workers": False,
    "output_dir": False,
}


def parse_config(doc: dict, base_dir: Optional[Path] = None) -> RunConfig:
    """Validate a parsed JSON document and build the run configuration."""
    if not isinstance(doc, dict):
        raise ConfigError("top level: expected an object")
    _require(doc, _TOP_KEYS, "top level")
    version = _int(doc, "schema_version", "top level")
    if version != SCHEMA_VERSION:
        raise ConfigError(f"schema_version: expected {SCHEMA_VERSION}, got {version}")

    horizon = _int(doc, "horizon", "top level", minimum=2)
    runs = _int(doc, "runs", "top level", default=1000, minimum=1)
    seed = _int(doc, "master_seed", "top level", default=0, minimum=0)
    tau = _number(doc, "tau", "top level", default=1.0, positive=True)

    dyn_obj = doc["dynamics"]
    _require(dyn_obj, {"m": True, "sigma_u_sq": True}, "dynamics")
    try:
        dynamics = ClockDynamics(
            m=_number(dyn_obj, "m", "dynamics", positive=True),
            sigma_u_sq=_number(dyn_obj, "sigma_u_sq", "dynamics", positive=True),
            tau=tau,
        )
    except ValueError as exc:
        raise ConfigError(f"dynamics: {exc}") from None

    tm_obj = doc.get("temp_model", {})
    _require(tm_obj, {"kappa_ppm": False, "T0": False, "theta0": False, "sigma_T_sq": False}, "temp_model")
    temp_model = TempSkewModel(
        kappa=_number(tm_obj, "kappa_ppm", "temp_model", default=0.04) * 1e-6,
        T0=_number(tm_obj, "T0", "temp_model", default=25.0),
        theta0=_number(tm_obj, "theta0", "temp_model", default=0.0),
        sigma_T_sq=_number(tm_obj, "sigma_T_sq", "temp_model", default=0.1, minimum=0.0),
    )

    if (doc.get("pdv") is None) == (doc.get("empirical") is None):
        raise ConfigError("top level: exactly one of 'pdv' and 'empirical' is required")
    pdv = link = None
    if doc.get("pdv") is not None:
        pdv = _parse_pdv(doc["pdv"], "pdv")
        if doc.get("link") is None:
            raise ConfigError("link: required with 'pdv'")
        _require(doc["link"], {"d1": True, "d2": True}, "link")
        link = LinkConfig(d1=_number(doc["link"], "d1", "link"), d2=_number(doc["link"], "d2", "link"))
    elif doc.get("link") is not None:
        raise ConfigError("link: not allowed with 'empirical', whose fixed delays are the table cells' minima")

    empirical = None
    if doc.get("empirical") is not None:
        e_obj = doc["empirical"]
        _require(e_obj, {"csv_path": True, "forward_cell": True, "reverse_cell": True}, "empirical")
        csv_path = Path(e_obj["csv_path"])
        if base_dir is not None and not csv_path.is_absolute():
            csv_path = base_dir / csv_path
        fwd = _float_list(e_obj["forward_cell"], "empirical.forward_cell")
        rev = _float_list(e_obj["reverse_cell"], "empirical.reverse_cell")
        if len(fwd) != 2 or len(rev) != 2:
            raise ConfigError("empirical cells must be [packet_bytes, load_percent] pairs")
        table = load_delay_csv(csv_path)
        empirical = EmpiricalSource(
            table=table,
            forward_cell=(int(fwd[0]), fwd[1]),
            reverse_cell=(int(rev[0]), rev[1]),
        )

    thermal = _parse_thermal(doc["thermal"], "thermal")

    truth_obj = doc.get("truth", {})
    _require(
        truth_obj,
        {"initial_offset": False, "initial_skew_residual": False, "process_noise_sq": False, "thermal_coupling": False},
        "truth",
    )
    coupling = truth_obj.get("thermal_coupling", TruthOptions.thermal_coupling)
    if not isinstance(coupling, bool):
        raise ConfigError("truth.thermal_coupling: expected a boolean")
    truth = TruthOptions(
        initial_offset=_number(truth_obj, "initial_offset", "truth", default=TruthOptions.initial_offset),
        initial_skew_residual=_number(
            truth_obj, "initial_skew_residual", "truth", default=TruthOptions.initial_skew_residual
        ),
        process_noise_sq=_number(
            truth_obj, "process_noise_sq", "truth", default=TruthOptions.process_noise_sq, minimum=0.0
        ),
        thermal_coupling=coupling,
    )

    estimators = _estimator_selection(doc.get("estimators", list(ESTIMATORS)))

    vb_obj = doc.get("vb", {})
    _require(vb_obj, {"max_iterations": False, "convergence_tol": False, "forgetting_factor": False}, "vb")
    try:
        vb = VbSettings(
            max_iterations=_int(vb_obj, "max_iterations", "vb", default=VbSettings.max_iterations, minimum=1),
            convergence_tol=_number(vb_obj, "convergence_tol", "vb", default=VbSettings.convergence_tol, positive=True),
            forgetting_factor=_number(
                vb_obj, "forgetting_factor", "vb", default=VbSettings.forgetting_factor, positive=True
            ),
        )
    except ValueError as exc:
        raise ConfigError(f"vb: {exc}") from None

    ni_obj = doc.get("netcomm_init", {})
    ni_fields = {"x0": "x0", "P0_diag": "p0_diag", "chi0": "chi0", "dof0": "dof0", "scale0": "scale0"}
    _require(ni_obj, dict.fromkeys(ni_fields, False), "netcomm_init")
    given = {f: tuple(_float_list(ni_obj[k], f"netcomm_init.{k}")) for k, f in ni_fields.items() if k in ni_obj}
    netcomm_init = NetcommInit(**given)
    if len(netcomm_init.x0) != 2 or len(netcomm_init.p0_diag) != 2:
        raise ConfigError("netcomm_init: x0 and P0_diag must have two entries")
    if not (len(netcomm_init.chi0) == len(netcomm_init.dof0) == len(netcomm_init.scale0)):
        raise ConfigError("netcomm_init: chi0, dof0, scale0 lengths must agree")

    fusion_obj = doc.get("fusion", {})
    _require(fusion_obj, {"lambda": False, "feedback": False}, "fusion")
    feedback = fusion_obj.get("feedback", FusionSettings.feedback)
    if not isinstance(feedback, bool):
        raise ConfigError("fusion.feedback: expected a boolean")
    lam = _number(fusion_obj, "lambda", "fusion", default=FusionSettings.lam)
    if not 0.0 <= lam <= 1.0:
        raise ConfigError(f"fusion.lambda: must lie in [0, 1], got {lam}")
    fusion = FusionSettings(lam=lam, feedback=feedback)

    steady_window = _int(doc, "steady_window", "top level", default=10, minimum=1)
    if steady_window > horizon:
        raise ConfigError(f"steady_window: must be <= horizon ({horizon}), got {steady_window}")

    workers = _int(doc, "workers", "top level", default=RunConfig.workers, minimum=1)
    output_dir = doc.get("output_dir", RunConfig.output_dir)
    if not isinstance(output_dir, str):
        raise ConfigError("output_dir: expected a string")

    try:
        scenario = ScenarioConfig(
            tau=tau,
            horizon=horizon,
            link=link,
            pdv=pdv,
            thermal=thermal,
            temp_model=temp_model,
            truth=truth,
            gm_coefficient=dynamics.m,
            empirical=empirical,
        )
    except ValueError as exc:
        raise ConfigError(f"scenario: {exc}") from None

    return RunConfig(
        scenario=scenario,
        dynamics=dynamics,
        temp_model=temp_model,
        estimators=estimators,
        runs=runs,
        master_seed=seed,
        vb=vb,
        netcomm_init=netcomm_init,
        kalman_nominal_stddev=_number(doc, "kalman_nominal_stddev", "top level", default=5e-6, positive=True),
        fusion=fusion,
        steady_window=steady_window,
        workers=workers,
        output_dir=output_dir,
    )


def load_config(path) -> RunConfig:
    """Load and validate a JSON run configuration file."""
    p = Path(path)
    try:
        doc = json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{p}: invalid JSON: {exc}") from None
    return parse_config(doc, base_dir=p.parent)
