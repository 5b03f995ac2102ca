"""Experiment configuration: the scenario table, presets, validation and
JSON (de)serialization.

Config files are JSON documents mirroring ExperimentConfig; angles are in
radians and storage times in microseconds.  trials_per_projection = 0
selects exact (expectation-valued, linearized-detector) tomography instead
of sampled counts.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from dataclasses import fields as dataclass_fields

from . import hilbert, memory, photodetection, security
from .memory import MemoryParams
from .optics import QPlateParams
from .photodetection import TRIALS_MAX, SourceParams

# Fig-style angle grid: 0..60 degrees in 10-degree steps plus 45
DEFAULT_ANGLES_DEG = (0, 10, 20, 30, 40, 45, 50, 60)
DEFAULT_TIMES_US = (0.0, 1.0, 2.0, 3.0, 5.0, 7.0, 10.0, 15.0)
BOUNDS_NBAR_GRID = (0.1, 0.5, 1.0)

# scenario -> (preset fields over the measured-regime base config, the
# storage times and angles its jobs run over, each with every input state;
# None without jobs)
_SCENARIOS = {
    "store_tomography": ({}, lambda cfg: (cfg.storage_times[:1], (0.0,))),
    "fidelity_vs_time": ({"storage_times": DEFAULT_TIMES_US},
                         lambda cfg: (cfg.storage_times, (0.0,))),
    "fidelity_vs_rotation": ({
        "rotation_angles": tuple(math.radians(d) for d in DEFAULT_ANGLES_DEG),
        "input_states": hilbert.HYBRID_SPHERE_NAMES + hilbert.POLARIZATION_NAMES,
        "encode_with_qplate": False,
    }, lambda cfg: (cfg.storage_times[:1], cfg.rotation_angles)),
    "field_maps": ({"trials_per_projection": 0}, None),
    "bounds_table": ({}, None),
}
SCENARIOS = tuple(_SCENARIOS)


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class ExperimentConfig:
    scenario: str
    source: SourceParams = SourceParams()
    memory: MemoryParams = MemoryParams()
    qplate: QPlateParams = QPlateParams()
    trials_per_projection: int = 150_000
    rotation_angles: tuple[float, ...] = (0.0,)
    storage_times: tuple[float, ...] = (1.0,)
    input_states: tuple[str, ...] = hilbert.HYBRID_SPHERE_NAMES
    seed: int = 12345
    encode_with_qplate: bool = True

    def validate(self) -> None:
        if self.scenario not in SCENARIOS:
            raise ConfigError(f"scenario: {self.scenario!r} not in {SCENARIOS}")
        for name in self.input_states:
            if name not in hilbert.STATE_NAMES:
                raise ConfigError(f"input_states: unknown state {name!r}")
        if not self.input_states and self.scenario != "bounds_table":
            raise ConfigError("input_states: must not be empty")
        repeated = sorted({s for s in self.input_states if self.input_states.count(s) > 1})
        if repeated and self.scenario in ("store_tomography", "field_maps"):
            raise ConfigError(f"input_states: {repeated} listed more than once; "
                              f"{self.scenario} keys its outputs by state name")
        for name in ("trials_per_projection", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigError(f"{name}: expected an integer, got {value!r}")
        if not 0 <= self.trials_per_projection <= TRIALS_MAX:
            raise ConfigError(f"trials_per_projection: must lie in [0, {TRIALS_MAX}]")
        if self.seed < 0:
            raise ConfigError("seed: must be >= 0")
        for sub in ("source", "memory", "qplate"):
            params = getattr(self, sub)
            for f in dataclass_fields(params):
                if f.type == "float":
                    _check_finite(f"{sub}.{f.name}", getattr(params, f.name))
        if self.source.nbar > security.NBAR_MAX:
            raise ConfigError(f"source.nbar: must be <= {security.NBAR_MAX}")
        if not math.isfinite(2.0 * self.qplate.alpha0):
            raise ConfigError("qplate.alpha0: 2 * alpha0 overflows")
        for t in self.storage_times:
            _check_finite("storage_times", t)
            if t < 0.0:
                raise ConfigError(f"storage_times: invalid time {t}")
            try:
                memory.efficiency_at(self.memory, t)
            except OverflowError as exc:
                raise ConfigError(f"storage_times: (t/tau)^2 overflows at t = {t}") from exc
        for a in self.rotation_angles:
            _check_finite("rotation_angles", a)
            if not math.isfinite(math.degrees(a)):
                raise ConfigError(f"rotation_angles: {a} rad overflows in degrees")
        if not isinstance(self.encode_with_qplate, bool):
            raise ConfigError(
                f"encode_with_qplate: expected true or false, got {self.encode_with_qplate!r}")
        if not self.storage_times:
            raise ConfigError("storage_times: must not be empty")
        if not self.rotation_angles:
            raise ConfigError("rotation_angles: must not be empty")
        if self.scenario != "field_maps" and self.source.nbar <= 0.0:
            raise ConfigError(f"source.nbar: {self.scenario} needs nbar > 0")
        if self.scenario == "bounds_table" and self.memory.eta0 <= 0.0:
            raise ConfigError("memory.eta0: bounds_table needs eta0 > 0")
        if self.scenario == "field_maps":
            bad = [s for s in self.input_states if s not in hilbert.HYBRID_SPHERE_NAMES]
            if bad:
                raise ConfigError(f"input_states: field_maps needs hybrid-sphere states, got {bad}")


def _check_finite(path: str, value) -> None:
    """A JSON number that converts to a finite float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a finite number, got {value!r}")
    try:
        finite = math.isfinite(value)
    except OverflowError:   # an integer beyond the float range
        finite = False
    if not finite:
        raise ConfigError(f"{path}: expected a finite number, got {value!r}")


def default_config(scenario: str) -> ExperimentConfig:
    """Scenario presets in the measured operating regime."""
    try:
        preset, _ = _SCENARIOS[scenario]
    except (KeyError, TypeError):   # TypeError: an unhashable JSON value
        raise ConfigError(f"scenario: {scenario!r} not in {SCENARIOS}") from None
    mem = MemoryParams()
    survival_1us = memory.efficiency_at(mem, 1.0)
    # background pinned so the expected raw six-state average reproduces the
    # measured 0.967 at 1 us storage
    bg = photodetection.calibrate_background(
        0.5, survival_1us, photodetection.snr_for_raw_fidelity(0.967)
    )
    return ExperimentConfig(scenario=scenario, memory=replace(mem, bg_click=bg), **preset)


# --- config (de)serialization ----------------------------------------------

def config_to_dict(cfg: ExperimentConfig) -> dict:
    d = asdict(cfg)
    d["rotation_angles"] = list(cfg.rotation_angles)
    d["storage_times"] = list(cfg.storage_times)
    d["input_states"] = list(cfg.input_states)
    return d


def _build_sub(cls, raw: dict, path: str):
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: expected an object, got {type(raw).__name__}")
    allowed = cls.__dataclass_fields__
    unknown = set(raw) - set(allowed)
    if unknown:
        raise ConfigError(f"{path}: unknown fields {sorted(unknown)}")
    try:
        return cls(**raw)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def config_from_dict(raw: dict) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config root must be an object")
    unknown = set(raw) - set(ExperimentConfig.__dataclass_fields__)
    if unknown:
        raise ConfigError(f"unknown config fields {sorted(unknown)}")
    if "scenario" not in raw:
        raise ConfigError("scenario: required field is missing")
    kwargs = dict(raw)
    for key, cls in (("source", SourceParams), ("memory", MemoryParams), ("qplate", QPlateParams)):
        if key in kwargs:
            kwargs[key] = _build_sub(cls, kwargs[key], key)
    for key in ("rotation_angles", "storage_times", "input_states"):
        if key in kwargs:
            if not isinstance(kwargs[key], (list, tuple)):
                raise ConfigError(f"{key}: expected a list")
            kwargs[key] = tuple(kwargs[key])
    try:
        cfg = ExperimentConfig(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    cfg.validate()
    return cfg
