"""Configuration-driven experiment runner and file formats.

Scenarios compose the full simulated apparatus: state preparation (with or
without the encoding plate), dual-rail storage, detection-frame rotation,
decoding, weak-coherent click statistics and tomography.  Every emitted
fidelity row carries the matching classical-memory bounds and the
key-distribution threshold verdict; runs are bit-reproducible for a fixed
(config, seed) pair.

Jobs are batched over a job axis: encode, storage and recombine run once
per distinct (state, storage time), and the rotation, click statistics,
tomography and fidelities work on arrays with one row per job.  A run draws
all its click counts from one stream, default_rng(seed): job by job in
enumeration order, each job's six projectors in H, V, D, A, R, L order.
The job_seed of every row is that run seed.  Arithmetic on the job axis is
elementwise, so row 0 of a run is bit for bit the one-job run
simulate_point(..., job_seed=seed).  The batch is a ResultTable of columns;
results.csv, results.jsonl and the stdout table are formatted from those
columns, each distinct float once, one fixed template per line, with the
bytes of per-row json.dumps and csv.writer.

Config files are JSON documents mirroring ExperimentConfig; angles are in
radians and storage times in microseconds.  trials_per_projection = 0
selects exact (expectation-valued, linearized-detector) tomography instead
of sampled counts.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import asdict, dataclass, field, replace
from dataclasses import fields as dataclass_fields
from pathlib import Path

import numpy as np

from . import fields, hilbert, memory, optics, photodetection, security, tomography
from .hilbert import BasisTag, HybridState, named_state
from .memory import MemoryParams
from .optics import QPlateParams
from .photodetection import SourceParams

CSV_COLUMNS = (
    "scenario",
    "state",
    "angle_deg",
    "time_us",
    "fidelity_raw",
    "fidelity_corrected",
    "bound_poisson",
    "bound_efficiency",
    "pass_shor_preskill",
)

# Fig-style angle grid: 0..60 degrees in 10-degree steps plus 45
DEFAULT_ANGLES_DEG = (0, 10, 20, 30, 40, 45, 50, 60)
DEFAULT_TIMES_US = (0.0, 1.0, 2.0, 3.0, 5.0, 7.0, 10.0, 15.0)
BOUNDS_NBAR_GRID = (0.1, 0.5, 1.0)

# scenario -> (preset fields over the measured-regime base config, job
# enumeration: state outermost, then time, then angle; None without jobs)
_SCENARIOS = {
    "store_tomography": ({}, lambda cfg: [
        (s, cfg.storage_times[0], 0.0) for s in cfg.input_states]),
    "fidelity_vs_time": ({"storage_times": DEFAULT_TIMES_US}, lambda cfg: [
        (s, t, 0.0) for s in cfg.input_states for t in cfg.storage_times]),
    "fidelity_vs_rotation": ({
        "rotation_angles": tuple(math.radians(d) for d in DEFAULT_ANGLES_DEG),
        "input_states": hilbert.HYBRID_SPHERE_NAMES + hilbert.POLARIZATION_NAMES,
        "encode_with_qplate": False,
    }, lambda cfg: [(s, cfg.storage_times[0], a) for s in cfg.input_states
                    for a in cfg.rotation_angles]),
    "field_maps": ({"trials_per_projection": 0}, None),
    "bounds_table": ({}, None),
}
SCENARIOS = tuple(_SCENARIOS)

# click counts and their background subtraction are float64 arithmetic,
# exact only up to 2**53
TRIALS_MAX = 2**53

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3


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
        try:
            optics._check_charge(self.qplate)
        except optics.UnsupportedCharge as exc:
            raise ConfigError(f"qplate.q: {exc}") from exc
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


# --- batched job pipeline ---------------------------------------------------

@dataclass(frozen=True)
class DetectionMixture:
    """Incoherent polarization components reaching the analyzers.

    Rail imbalance or phase error pushes part of a hybrid state into the
    orthogonal spin-orbit combinations; after decoding those arrive as
    circularly polarized light in spatially distinct modes, so they add to
    the click rates without interfering with the main beam.
    ``rotates`` marks retrieved polarization light, whose components turn
    with the detection frame; decoded hybrid states carry zero total
    angular momentum and are the same at every angle.
    """

    components: tuple[tuple[float, HybridState], ...]
    target: HybridState
    rotates: bool = False

    def rotated(self, theta: float) -> DetectionMixture:
        """The light at the analyzers for a detection frame rotated by theta."""
        if not self.rotates:
            return self
        return replace(self, components=tuple(
            (w, optics.rotate_frame(pol, theta)) for w, pol in self.components))


def _retrieve(state_name: str, cfg: ExperimentConfig, t_us: float) -> DetectionMixture:
    """Run one state through encode, storage and recombine (and the decode
    pass, for hybrid states)."""
    psi = named_state(state_name)
    if psi.basis_tag is BasisTag.POLARIZATION and cfg.encode_with_qplate:
        psi = optics.qplate_apply(psi, cfg.qplate)
    rails = memory.store_retrieve(optics.displacer_split(psi), cfg.memory, t_us)
    hybrid = psi.basis_tag is BasisTag.HYBRID_POINCARE
    target = optics.qplate_decode(psi, cfg.qplate) if hybrid else psi
    if rails.power() == 0.0:
        # the efficiency underflowed at a long storage time: nothing is
        # retrieved and the analyzers see background clicks only
        return DetectionMixture((), target, not hybrid)
    rec = optics.displacer_recombine(rails)
    if not hybrid:
        return DetectionMixture(((rec.throughput, rec.state),), target, True)
    conv = optics.conversion_probability(cfg.qplate) ** 2  # encode + decode pass
    comps = [(conv * (rec.throughput - rec.leak_power), optics.qplate_decode(rec.state, cfg.qplate))]
    if rec.leak_power > 0.0:
        # |R,-1> decodes to L-polarized, |L,+1> to R-polarized light
        comps.append((conv * abs(rec.leak[0]) ** 2, named_state("L")))
        comps.append((conv * abs(rec.leak[1]) ** 2, named_state("R")))
    return DetectionMixture(tuple(comps), target)


def propagate(state_name: str, cfg: ExperimentConfig, t_us: float,
              theta: float) -> DetectionMixture:
    """Run one state through encode, storage, rotation and decode."""
    return _retrieve(state_name, cfg, t_us).rotated(theta)


def _signal(mixes: list[DetectionMixture]) -> tuple[np.ndarray, np.ndarray]:
    """Signal weight per projector (J, 6) and survival (J,), the summed
    component weights, of each mixture."""
    signal = np.zeros((len(mixes), len(photodetection.PROJECTOR_ORDER)))
    survival = np.zeros(len(mixes))
    for k in range(max((len(m.components) for m in mixes), default=0)):
        rows = [j for j, m in enumerate(mixes) if len(m.components) > k]
        comps = [mixes[j].components[k] for j in rows]
        weights = np.array([w for w, _ in comps])
        amps = np.array([(pol.c0, pol.c1) for _, pol in comps], dtype=complex)
        signal[rows] += weights[:, None] * photodetection.projection_weights(amps)
        survival[rows] += weights
    return signal, survival


def _detect(cfg: ExperimentConfig, signal: np.ndarray, survival: np.ndarray,
            seed: int) -> tuple[np.ndarray, float, int]:
    """Counts (J, 6), expected background clicks and trials per projector;
    sampled counts come from one stream, default_rng(seed), in row order."""
    nbar = cfg.source.nbar
    bg = cfg.memory.bg_click
    if cfg.trials_per_projection == 0:
        # exact mode: expectation-valued counts for the linearized detector
        scale = 1.0 / (1.0 + nbar)
        counts, bg_expected, trials = (bg + nbar * signal) * scale, bg * scale, 1
    else:
        trials = cfg.trials_per_projection
        lit = survival[:, None] > 0
        proj = np.divide(signal, survival[:, None], out=np.zeros_like(signal), where=lit)
        # the one clamp of click inputs, against round-off in the sums and
        # ratios of component weights
        probs = photodetection.click_probabilities(
            nbar, np.minimum(1.0, survival), np.minimum(1.0, proj), bg)
        counts, bg_expected = photodetection.sample_counts(probs, trials, seed), bg * trials
    photodetection.check_counts(counts, trials)
    return counts, bg_expected, trials


def detection_records(mix: DetectionMixture, cfg: ExperimentConfig,
                      job_seed: int) -> list[photodetection.CountRecord]:
    counts, bg_expected, trials = _detect(cfg, *_signal([mix]), job_seed)
    return [photodetection.CountRecord(name, c, trials, bg_expected)
            for name, c in zip(photodetection.PROJECTOR_ORDER, counts[0].tolist())]


@dataclass(frozen=True, eq=False)   # == on array fields has no single truth value
class ResultTable:
    """Results of a batch of jobs as columns, one row per job.

    Bounds and SNR depend on a job only through its survival, so they are
    kept once per distinct survival and ``level`` gives each job's entry.
    A job with no retrieved signal (``retrieved`` false) has nothing to
    correct: its ``f_corr`` and ``rho_corr`` entries are zero placeholders.
    """

    scenario: str
    states: list[str]
    times: list[float]          # storage times as given: int or float
    seed: int                   # the stream all counts were drawn from
    angle_deg: np.ndarray       # (J,) round(degrees(theta), 9)
    f_raw: np.ndarray           # (J,)
    f_corr: np.ndarray          # (J,)
    retrieved: np.ndarray       # (J,) bool
    stokes: np.ndarray          # (J, 3) raw Stokes vectors, before projection
    rho_raw: np.ndarray         # (J, 2, 2)
    rho_corr: np.ndarray        # (J, 2, 2)
    survival: np.ndarray        # (J,) clamped to [1e-12, 1]
    level: np.ndarray           # (J,) index into the per-survival columns
    bound_poisson: np.ndarray   # (S,)
    bound_efficiency: np.ndarray  # (S,)
    snr: np.ndarray | None      # (S,); None without background clicks
    secure: np.ndarray          # (J,) Shor-Preskill verdict on f_raw

    def rows(self) -> list[dict]:
        """One dict per job, with Python values: the row form that scripts
        and tests read."""
        def matrices(rho):
            return [{"real": re, "imag": im}
                    for re, im in zip(rho.real.tolist(), rho.imag.tolist())]

        retrieved = self.retrieved.tolist()
        f_corr = [f if ok else None for f, ok in zip(self.f_corr.tolist(), retrieved)]
        rho_corr = [m if ok else None for m, ok in zip(matrices(self.rho_corr), retrieved)]
        snr = [None] * len(retrieved) if self.snr is None else self.snr[self.level].tolist()
        return [{
            "scenario": self.scenario,
            "state": state,
            "angle_deg": angle,
            "time_us": t_us,
            "fidelity_raw": f,
            "fidelity_corrected": f_corr[j],
            "bound_poisson": poisson,
            "bound_efficiency": efficiency,
            "pass_shor_preskill": secure,
            "_extras": {
                "survival": surv,
                "snr": snr[j],
                "stokes_raw": stokes,
                "rho_raw": rho,
                "rho_corrected": rho_corr[j],
                "job_seed": self.seed,
            },
        } for j, (state, t_us, angle, f, poisson, efficiency, secure, surv, stokes, rho)
            in enumerate(zip(
                self.states, self.times, self.angle_deg.tolist(),
                self.f_raw.tolist(), self.bound_poisson[self.level].tolist(),
                self.bound_efficiency[self.level].tolist(), self.secure.tolist(),
                self.survival.tolist(), self.stokes.tolist(), matrices(self.rho_raw)))]


def _simulate(cfg: ExperimentConfig, jobs: list[tuple[str, float, float]],
              seed: int) -> ResultTable:
    """Result table of (state, time, angle) jobs: the pipeline over a job axis.

    Encode, storage and recombine run once per distinct (state, time); the
    counts of all jobs come from one stream, default_rng(seed), in job order.
    """
    retrievals: dict[tuple[str, float], DetectionMixture] = {}
    for state, t_us, _ in jobs:
        if (state, t_us) not in retrievals:
            retrievals[state, t_us] = _retrieve(state, cfg, t_us)
    mixes = [retrievals[state, t_us].rotated(theta) for state, t_us, theta in jobs]
    signal, survival = _signal(mixes)
    counts, bg_expected, _ = _detect(cfg, signal, survival, seed)
    targets = np.array([(m.target.c0, m.target.c1) for m in mixes], dtype=complex)
    stokes, rho_raw = tomography.reconstruct(counts, bg_expected)
    f_raw = hilbert.fidelities(rho_raw, targets)
    retrieved = survival > 0
    f_corr, rho_corr = np.zeros_like(f_raw), np.zeros_like(rho_raw)
    _, rho = tomography.reconstruct(counts[retrieved], bg_expected, subtract_bg=True)
    f_corr[retrieved] = hilbert.fidelities(rho, targets[retrieved])
    rho_corr[retrieved] = rho

    nbar, bg = cfg.source.nbar, cfg.memory.bg_click
    survival = np.minimum(1.0, np.maximum(1e-12, survival))
    levels, level = np.unique(survival, return_inverse=True)
    levels = levels.tolist()
    return ResultTable(
        scenario=cfg.scenario,
        states=[state for state, _, _ in jobs],
        times=[t_us for _, t_us, _ in jobs],
        seed=seed,
        angle_deg=np.array([round(math.degrees(theta), 9) for _, _, theta in jobs], dtype=float),
        f_raw=f_raw,
        f_corr=f_corr,
        retrieved=retrieved,
        stokes=stokes,
        rho_raw=rho_raw,
        rho_corr=rho_corr,
        survival=survival,
        level=level,
        bound_poisson=np.full(len(levels), security.classical_bound_poisson(nbar)),
        bound_efficiency=np.array([
            security.classical_bound_with_efficiency(security.BenchmarkInput(nbar, s))
            for s in levels]),
        snr=np.array([photodetection.snr_of(nbar, s, bg) for s in levels]) if bg > 0 else None,
        secure=security.shor_preskill_passes(f_raw),
    )


def simulate_point(state_name: str, cfg: ExperimentConfig, t_us: float,
                   theta: float, job_seed: int) -> dict:
    """One (state, time, angle) job: full pipeline plus benchmark columns."""
    return _simulate(cfg, [(state_name, t_us, theta)], job_seed).rows()[0]


# --- scenario runners --------------------------------------------------------

@dataclass
class Report:
    config: ExperimentConfig
    table: ResultTable | None = None
    bounds_rows: list[dict] = field(default_factory=list)
    pixmaps: list[tuple[str, str]] = field(default_factory=list)  # (name, text)

    @property
    def rows(self) -> list[dict]:
        """The job rows, derived from the table on each access."""
        return [] if self.table is None else self.table.rows()

    @property
    def density(self) -> dict[str, dict]:
        """Raw and corrected density matrix per state (store_tomography only)."""
        if self.config.scenario != "store_tomography":
            return {}
        return {row["state"]: {
            "rho_raw": row["_extras"]["rho_raw"],
            "rho_corrected": row["_extras"]["rho_corrected"],
            "fidelity_raw": row["fidelity_raw"],
            "fidelity_corrected": row["fidelity_corrected"],
        } for row in self.rows}


def _jobs(cfg: ExperimentConfig) -> list[tuple[str, float, float]]:
    """Canonical job enumeration of the scenario; empty without jobs."""
    enumerate_jobs = _SCENARIOS[cfg.scenario][1]
    return [] if enumerate_jobs is None else enumerate_jobs(cfg)


def run(cfg: ExperimentConfig) -> Report:
    cfg.validate()
    report = Report(config=cfg)
    if cfg.scenario == "bounds_table":
        nbars = sorted(set(BOUNDS_NBAR_GRID) | {cfg.source.nbar})
        for nbar in nbars:
            bench = security.BenchmarkInput(nbar, cfg.memory.eta0)
            report.bounds_rows.append({
                "nbar": nbar,
                "eta": cfg.memory.eta0,
                "bound_nphoton_1": security.classical_bound_nphoton(1),
                "bound_poisson": security.classical_bound_poisson(nbar),
                "bound_efficiency": security.classical_bound_with_efficiency(bench),
                "shor_preskill_threshold": security.SHOR_PRESKILL_THRESHOLD,
            })
        return report
    if cfg.scenario == "field_maps":
        grid = fields.Grid()
        for name in cfg.input_states:
            fmap = fields.vector_field_map(named_state(name), grid)
            intensity = fmap.intensity()
            azimuth = fields.polarization_azimuth(fmap)
            report.pixmaps.append((f"{name}_intensity.pgm", render_pgm(intensity)))
            report.pixmaps.append(
                (f"{name}_polarization.ppm", render_ppm(azimuth / math.pi, intensity))
            )
            report.pixmaps.append((f"{name}_intensity.csv", render_grid_csv(intensity)))
        return report
    report.table = _simulate(cfg, _jobs(cfg), cfg.seed)
    return report


# --- output formats ----------------------------------------------------------

def _scaled(intensity: np.ndarray) -> np.ndarray:
    """Intensity divided by its peak: each pixel in [0, 1].

    A pixmap cannot show a negative or non-finite intensity, so those raise
    ValueError; this also bounds the samples of a scaled image to [0, maxval].
    """
    if not np.isfinite(intensity).all() or (intensity < 0.0).any():
        raise ValueError("pixmap intensity must be finite and non-negative")
    peak = float(intensity.max())
    return np.zeros_like(intensity) if peak == 0.0 else intensity / peak


def _pixmap_text(magic: str, width: int, height: int, maxval: int,
                 samples: np.ndarray) -> str:
    """ASCII netpbm file from integer samples in [0, maxval], one text row
    per array row; each level that occurs is formatted once."""
    if not 0 < maxval < 65536:
        raise ValueError(f"pixmap maxval must be in [1, 65535], got {maxval}")
    levels = np.flatnonzero(np.bincount(samples.ravel(), minlength=maxval + 1))
    table = np.empty(maxval + 1, dtype=object)
    table[levels] = [str(v) for v in levels.tolist()]
    rows = "".join(" ".join(row) + "\n" for row in table[samples].tolist())
    return f"{magic}\n{width} {height}\n{maxval}\n" + rows


def render_pgm(intensity: np.ndarray, maxval: int = 65535) -> str:
    """ASCII PGM (P2) with intensity scaled to the full gray range."""
    pixels = np.rint(_scaled(intensity) * maxval).astype(int)
    return _pixmap_text("P2", pixels.shape[1], pixels.shape[0], maxval, pixels)


# (r, g, b) of each hue sector as indices into the corners (v, q, p, t)
_HSV_SECTORS = np.array([[0, 3, 2], [1, 0, 2], [2, 0, 3], [2, 1, 0], [3, 2, 0], [0, 2, 1]],
                        dtype=np.int8)


def _hsv_to_rgb(h: np.ndarray, v: np.ndarray) -> np.ndarray:
    """RGB (..., 3) of hue h in [0, 1) and value v at full saturation."""
    h6 = h * 6.0
    sector = np.floor(h6)
    f = h6 - sector
    corners = np.zeros(v.shape + (4,))   # p = v * (1 - s) = 0
    corners[..., 0] = v
    corners[..., 1] = v * (1.0 - f)
    corners[..., 3] = v * f
    return np.take_along_axis(corners, _HSV_SECTORS[sector.astype(int) % 6], axis=-1)


def render_ppm(hue: np.ndarray, intensity: np.ndarray, maxval: int = 255) -> str:
    """ASCII PPM (P3): hue encodes polarization azimuth, value the intensity."""
    if not np.isfinite(hue).all():
        raise ValueError("pixmap hue must be finite")
    rgb = _hsv_to_rgb(np.mod(hue, 1.0), _scaled(intensity))
    pixels = np.rint(rgb * maxval).astype(int)
    ny, nx = hue.shape
    return _pixmap_text("P3", nx, ny, maxval, pixels.reshape(ny, 3 * nx))


def _float_text(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct values of a float array, the repr of each, and the index
    of every element's value (in the array's shape).

    Each distinct value is formatted once.  Values are told apart by their
    bit pattern, so -0.0 and 0.0 keep their own text.  For a float, repr is
    also str, the text csv writes.
    """
    values = np.ascontiguousarray(values, dtype=float)
    bits, inverse = np.unique(values.view(np.int64).ravel(), return_inverse=True)
    distinct = bits.view(float)
    text = np.array(list(map(repr, distinct.tolist())), dtype=object)
    return distinct, text, inverse.reshape(values.shape)


def render_grid_csv(values: np.ndarray) -> str:
    """CSV of a 2-D float grid, each cell the shortest round-trip repr.

    A float repr holds no delimiter or quote, so the rows need no CSV quoting.
    """
    _, text, inverse = _float_text(values)
    return "".join(",".join(row) + "\n" for row in text[inverse].tolist())


COUNT_RECORD_COLUMNS = ("projector", "clicks", "trials", "bg_expected")


def read_count_records(path: str | Path) -> list[photodetection.CountRecord]:
    """Load offline count records for tomography from a CSV file.

    Expected header: projector, clicks, trials, bg_expected.  Lets the
    reconstruction run on real experimental data via
    ``tomography.tomograph(read_count_records(path))``.
    """
    with open(path, newline="") as handle:
        reader = csv.DictReader(handle)
        missing = set(COUNT_RECORD_COLUMNS) - set(reader.fieldnames or ())
        if missing:
            raise ConfigError(f"count-record file lacks columns {sorted(missing)}")
        records = []
        for line in reader:
            records.append(photodetection.CountRecord(
                projector_id=line["projector"].strip(),
                clicks=int(line["clicks"]),
                trials=int(line["trials"]),
                bg_clicks_expected=float(line["bg_expected"]),
            ))
    return records


# --- result text -------------------------------------------------------------
#
# results.jsonl is the text json.dumps(row, sort_keys=True) gives and
# results.csv the text of csv.writer: keys sorted, ", " and ": " separators,
# floats as repr (json's NaN and Infinity, csv's nan and inf), None as null or
# an empty cell.  State and scenario names come from fixed tables and hold no
# character that JSON escapes or CSV quotes.

_JSON_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_JSON_BOOL = np.array(["false", "true"], dtype=object)
_CSV_BOOL = np.array(["False", "True"], dtype=object)

_JSON_RHO = '{"imag": [[%s, %s], [%s, %s]], "real": [[%s, %s], [%s, %s]]}'
_JSON_ROW = (
    '{"angle_deg": %s, "bound_efficiency": %s, "bound_poisson": %s, '
    '"fidelity_corrected": %s, "fidelity_raw": %s, "job_seed": %s, '
    '"pass_shor_preskill": %s, "rho_corrected": %s, "rho_raw": ' + _JSON_RHO + ', '
    '"scenario": %s, "snr": %s, "state": %s, "stokes_raw": [%s, %s, %s], '
    '"survival": %s, "time_us": %s}\n'
)
_SUMMARY_ROW = ("%10s  angle=%6.1f deg  t=%5.2f us  F_raw=%.4f  F_corr=%s  "
                "bound=%.4f  secure=%s\n")


def _float_cells(block: np.ndarray) -> tuple[list[list[str]], list[list[str]]]:
    """CSV and JSON text of a 2-D float block, as one list per column."""
    distinct, text, inverse = _float_text(block)
    json_text = text.copy()
    odd = ~np.isfinite(distinct)
    json_text[odd] = [_JSON_NON_FINITE[t] for t in text[odd].tolist()]
    return text[inverse.T].tolist(), json_text[inverse.T].tolist()


def _keep_ints(cells: list[str], values: list) -> None:
    """Give each integer value its integer text, as json and csv write it."""
    for j, value in enumerate(values):
        if type(value) is int:
            cells[j] = str(value)


def _csv_lines(header, columns: list[list[str]]) -> str:
    template = ",".join(["%s"] * len(header)) + "\n"
    return ",".join(header) + "\n" + "".join(map(template.__mod__, zip(*columns)))


def _results_text(table: ResultTable) -> tuple[str, str]:
    """(results.csv, results.jsonl) of a result table.

    Every float column goes into one block whose distinct values are
    formatted once; each line is one fixed template filled from the columns.
    """
    n = len(table.states)
    level = table.level
    block = np.column_stack([
        table.angle_deg,                                          # 0
        table.bound_efficiency[level],                            # 1
        table.bound_poisson[level],                               # 2
        table.f_corr,                                             # 3
        table.f_raw,                                              # 4
        table.rho_corr.imag.reshape(n, 4),                        # 5-8
        table.rho_corr.real.reshape(n, 4),                        # 9-12
        table.rho_raw.imag.reshape(n, 4),                         # 13-16
        table.rho_raw.real.reshape(n, 4),                         # 17-20
        np.zeros(n) if table.snr is None else table.snr[level],   # 21
        table.stokes,                                             # 22-24
        table.survival,                                           # 25
        np.array([0.0 if type(t) is int else t for t in table.times]),  # 26
    ])
    csv_cols, json_cols = _float_cells(block)
    for cols in (csv_cols, json_cols):
        _keep_ints(cols[26], table.times)
    rho_corr = list(map(_JSON_RHO.__mod__, zip(*json_cols[5:13])))
    for j in np.flatnonzero(~table.retrieved).tolist():
        csv_cols[3][j], json_cols[3][j], rho_corr[j] = "", "null", "null"
    if table.snr is None:
        json_cols[21] = ["null"] * n
    secure = table.secure.astype(int)
    names = {state: json.dumps(state) for state in set(table.states)}

    csv_text = _csv_lines(CSV_COLUMNS, [
        [table.scenario] * n, table.states, csv_cols[0], csv_cols[26], csv_cols[4],
        csv_cols[3], csv_cols[2], csv_cols[1], _CSV_BOOL[secure].tolist()])
    c = json_cols
    jsonl_text = "".join(map(_JSON_ROW.__mod__, zip(
        c[0], c[1], c[2], c[3], c[4], [table.seed] * n, _JSON_BOOL[secure].tolist(), rho_corr,
        *c[13:21], [json.dumps(table.scenario)] * n, c[21], [names[s] for s in table.states],
        *c[22:27])))
    return csv_text, jsonl_text


def _bounds_text(rows: list[dict]) -> str:
    header = list(rows[0])
    values = [[row[key] for row in rows] for key in header]
    block = np.array([[0.0 if type(v) is int else v for v in col] for col in values]).T
    cells, _ = _float_cells(block)
    for col, vals in zip(cells, values):
        _keep_ints(col, vals)
    return _csv_lines(header, cells)


def _summary(table: ResultTable) -> str:
    """The stdout table: one line per job."""
    f_corr = ["%.4f" % f if ok else "  none"
              for f, ok in zip(table.f_corr.tolist(), table.retrieved.tolist())]
    secure = np.array(["no", "yes"], dtype=object)[table.secure.astype(int)].tolist()
    return "".join(map(_SUMMARY_ROW.__mod__, zip(
        table.states, table.angle_deg.tolist(), table.times, table.f_raw.tolist(), f_corr,
        table.bound_efficiency[table.level].tolist(), secure)))


def emit(report: Report, out_dir: str | Path,
         formats: tuple[str, ...] = ("csv", "json-lines", "pixmap")) -> list[Path]:
    """Write the report; returns the written paths (deterministic content)."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    def _write(name: str, text: str):
        path = out / name
        path.write_text(text)
        written.append(path)

    if report.table is not None and ("csv" in formats or "json-lines" in formats):
        csv_text, jsonl_text = _results_text(report.table)
        if "csv" in formats:
            _write("results.csv", csv_text)
        if "json-lines" in formats:
            _write("results.jsonl", jsonl_text)
    if report.bounds_rows and "csv" in formats:
        _write("bounds.csv", _bounds_text(report.bounds_rows))
    density = report.density
    if density and "json-lines" in formats:
        _write("density_matrices.json", json.dumps(density, sort_keys=True, indent=2) + "\n")
    if "pixmap" in formats:
        for name, text in report.pixmaps:
            _write(name, text)
    return written


# --- entry point -------------------------------------------------------------

def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vortexmem",
        description="Simulate storage and retrieval of structured-polarization "
                    "beams in a dual-rail atomic memory.",
    )
    parser.add_argument("--config", type=Path, help="JSON config file")
    parser.add_argument("--scenario", choices=SCENARIOS,
                        help="scenario name (overrides the config file)")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--out", type=Path, default=Path("out"), help="output directory")
    parser.add_argument("--dump-config", action="store_true",
                        help="print the effective config as JSON and exit")
    return parser


def load_config(config_path: Path | None, scenario: str | None,
                seed: int | None) -> ExperimentConfig:
    raw: dict = {}
    if config_path is not None:
        try:
            raw = json.loads(Path(config_path).read_text())
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("config root must be an object")
    name = scenario or raw.get("scenario")
    if name is None:
        raise ConfigError("scenario: give --scenario or a config file with one")
    base = config_to_dict(default_config(name))
    base.update(raw)
    base["scenario"] = name
    if seed is not None:
        base["seed"] = seed
    return config_from_dict(base)


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = load_config(args.config, args.scenario, args.seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if args.dump_config:
        print(json.dumps(config_to_dict(cfg), sort_keys=True, indent=2))
        return EXIT_OK
    try:
        report = run(cfg)
        written = emit(report, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except tomography.InsufficientCounts as exc:
        print(f"insufficient counts: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    text = "".join(f"wrote {path}\n" for path in written)
    if report.table is not None:
        text += _summary(report.table)
    sys.stdout.write(text)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
