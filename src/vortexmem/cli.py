"""Configuration-driven experiment runner and file formats.

Scenarios compose the full simulated apparatus: state preparation (with or
without the encoding plate), dual-rail storage, detection-frame rotation,
decoding, weak-coherent click statistics and tomography.  Every emitted
fidelity row carries the matching classical-memory bounds and the
key-distribution threshold verdict; runs are bit-reproducible for a fixed
(config, seed) pair, with per-job seeds derived as seed XOR job index.

Jobs are batched over a job axis: encode, storage and recombine run once
per distinct (state, storage time), and the rotation, click statistics,
tomography and fidelities work on arrays with one row per job.  Each job
keeps its own generator, default_rng(seed XOR job index), so the per-job
seeds and the output bytes are those of a one-job-at-a-time run.

Config files are JSON documents mirroring ExperimentConfig; angles are in
radians and storage times in microseconds.  trials_per_projection = 0
selects exact (expectation-valued, linearized-detector) tomography instead
of sampled counts.
"""

from __future__ import annotations

import argparse
import csv
import io
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

SCENARIOS = (
    "store_tomography",
    "fidelity_vs_time",
    "fidelity_vs_rotation",
    "field_maps",
    "bounds_table",
)

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
        if self.trials_per_projection < 0:
            raise ConfigError("trials_per_projection: must be >= 0")
        if self.seed < 0:
            raise ConfigError("seed: must be >= 0")
        for sub in ("source", "memory", "qplate"):
            params = getattr(self, sub)
            for f in dataclass_fields(params):
                if f.type == "float":
                    _check_finite(f"{sub}.{f.name}", getattr(params, f.name))
        for t in self.storage_times:
            _check_finite("storage_times", t)
            if t < 0.0:
                raise ConfigError(f"storage_times: invalid time {t}")
        for a in self.rotation_angles:
            _check_finite("rotation_angles", a)
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
        if self.scenario in ("store_tomography", "fidelity_vs_time", "fidelity_vs_rotation"):
            if self.source.nbar <= 0.0:
                raise ConfigError("source.nbar: tomography scenarios need nbar > 0")
        if self.scenario == "field_maps":
            bad = [s for s in self.input_states if s not in hilbert.HYBRID_SPHERE_NAMES]
            if bad:
                raise ConfigError(f"input_states: field_maps needs hybrid-sphere states, got {bad}")


def _check_finite(path: str, value) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ConfigError(f"{path}: expected a finite number, got {value!r}")


def default_config(scenario: str) -> ExperimentConfig:
    """Scenario presets in the measured operating regime."""
    mem = MemoryParams()
    survival_1us = memory.efficiency_at(mem, 1.0)
    # background pinned so the expected raw six-state average reproduces the
    # measured 0.967 at 1 us storage
    bg = photodetection.calibrate_background(
        0.5, survival_1us, photodetection.snr_for_raw_fidelity(0.967)
    )
    mem = replace(mem, bg_click=bg)
    base = ExperimentConfig(scenario=scenario, memory=mem)
    if scenario == "store_tomography":
        return base
    if scenario == "fidelity_vs_time":
        return replace(base, storage_times=DEFAULT_TIMES_US)
    if scenario == "fidelity_vs_rotation":
        return replace(
            base,
            rotation_angles=tuple(math.radians(d) for d in DEFAULT_ANGLES_DEG),
            input_states=hilbert.HYBRID_SPHERE_NAMES + hilbert.POLARIZATION_NAMES,
            encode_with_qplate=False,
        )
    if scenario == "field_maps":
        return replace(base, trials_per_projection=0)
    if scenario == "bounds_table":
        return base
    raise ConfigError(f"scenario: {scenario!r} not in {SCENARIOS}")


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
    except (TypeError, ValueError) as exc:
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
    """

    components: tuple[tuple[float, HybridState], ...]
    target: HybridState

    def survival(self) -> float:
        return sum(w for w, _ in self.components)


@dataclass(frozen=True)
class _Retrieval:
    """One input state after encode, displacer, storage and recombine: the
    part of a job that does not depend on the detection-frame angle."""

    components: tuple[tuple[float, HybridState], ...]
    target: HybridState
    rotates: bool   # components are retrieved polarization light, not yet decoded

    def mixture(self, theta: float) -> DetectionMixture:
        """The light at the analyzers for a detection frame rotated by theta.

        Hybrid states carry zero total angular momentum, so their decoded
        components are the same at every angle."""
        comps = self.components
        if self.rotates:
            comps = tuple((w, optics.rotate_frame(pol, theta)) for w, pol in comps)
        return DetectionMixture(comps, self.target)


def _retrieve(state_name: str, cfg: ExperimentConfig, t_us: float) -> _Retrieval:
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
        return _Retrieval((), target, not hybrid)
    rec = optics.displacer_recombine(rails)
    if not hybrid:
        return _Retrieval(((rec.throughput, rec.state),), target, True)
    conv = optics.conversion_probability(cfg.qplate) ** 2  # encode + decode pass
    comps = [(conv * (rec.throughput - rec.leak_power), optics.qplate_decode(rec.state, cfg.qplate))]
    if rec.leak_power > 0.0:
        # |R,-1> decodes to L-polarized, |L,+1> to R-polarized light
        comps.append((conv * abs(rec.leak[0]) ** 2, named_state("L")))
        comps.append((conv * abs(rec.leak[1]) ** 2, named_state("R")))
    return _Retrieval(tuple(comps), target, False)


def propagate(state_name: str, cfg: ExperimentConfig, t_us: float,
              theta: float) -> DetectionMixture:
    """Run one state through encode, storage, rotation and decode."""
    return _retrieve(state_name, cfg, t_us).mixture(theta)


def _signal(mixes: list[DetectionMixture]) -> tuple[np.ndarray, np.ndarray]:
    """Signal weight per projector (J, 6) and survival (J,) of each mixture."""
    signal = np.zeros((len(mixes), len(photodetection.PROJECTOR_ORDER)))
    for k in range(max((len(m.components) for m in mixes), default=0)):
        rows = [j for j, m in enumerate(mixes) if len(m.components) > k]
        comps = [mixes[j].components[k] for j in rows]
        weights = np.array([w for w, _ in comps])[:, None]
        amps = np.array([(pol.c0, pol.c1) for _, pol in comps], dtype=complex)
        signal[rows] += weights * photodetection.projection_weights(amps)
    return signal, np.array([m.survival() for m in mixes], dtype=float)


def _detect(cfg: ExperimentConfig, signal: np.ndarray, survival: np.ndarray,
            seeds: list[int]) -> tuple[np.ndarray, float, int]:
    """Counts (J, 6), expected background clicks and trials per projector."""
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
        probs = photodetection.click_probabilities(
            nbar, np.minimum(1.0, survival), np.minimum(1.0, proj), bg)
        counts, bg_expected = photodetection.sample_counts(probs, trials, seeds), bg * trials
    photodetection.check_counts(counts, trials)
    return counts, bg_expected, trials


def detection_records(mix: DetectionMixture, cfg: ExperimentConfig,
                      job_seed: int) -> list[photodetection.CountRecord]:
    counts, bg_expected, trials = _detect(cfg, *_signal([mix]), [job_seed])
    return [photodetection.CountRecord(name, c, trials, bg_expected)
            for name, c in zip(photodetection.PROJECTOR_ORDER, counts[0].tolist())]


def _simulate(cfg: ExperimentConfig, jobs: list[tuple[str, float, float]],
              seeds: list[int]) -> list[dict]:
    """Rows of (state, time, angle) jobs: the pipeline over a job axis.

    Encode, storage and recombine run once per distinct (state, time); the
    counts of job j come from its own generator, default_rng(seeds[j]).  A
    job with no retrieved signal has nothing to correct, so its corrected
    fidelity and density matrix are None.
    """
    retrievals: dict[tuple[str, float], _Retrieval] = {}
    for state, t_us, _ in jobs:
        if (state, t_us) not in retrievals:
            retrievals[state, t_us] = _retrieve(state, cfg, t_us)
    mixes = [retrievals[state, t_us].mixture(theta) for state, t_us, theta in jobs]
    signal, survival = _signal(mixes)
    counts, bg_expected, _ = _detect(cfg, signal, survival, seeds)
    targets = np.array([(m.target.c0, m.target.c1) for m in mixes], dtype=complex)
    stokes_raw, rho_raw = tomography.reconstruct(counts, bg_expected)
    f_raw = hilbert.fidelities(rho_raw, targets).tolist()
    f_corr, rho_corr = [None] * len(jobs), [None] * len(jobs)
    retrieved = np.flatnonzero(survival > 0)
    _, rho = tomography.reconstruct(counts[retrieved], bg_expected, subtract_bg=True)
    for j, f, m in zip(retrieved.tolist(), hilbert.fidelities(rho, targets[retrieved]).tolist(),
                       _rho_to_lists(rho)):
        f_corr[j], rho_corr[j] = f, m

    nbar, bg = cfg.source.nbar, cfg.memory.bg_click
    bounds: dict[float, tuple] = {}   # survival -> (poisson, efficiency, snr)
    rows = []
    for j, ((state, t_us, theta), seed, f, stokes, rho, surv) in enumerate(zip(
            jobs, seeds, f_raw, stokes_raw.tolist(), _rho_to_lists(rho_raw), survival.tolist())):
        surv = min(1.0, max(1e-12, surv))
        if surv not in bounds:
            bounds[surv] = (
                security.classical_bound_poisson(nbar),
                security.classical_bound_with_efficiency(security.BenchmarkInput(nbar, surv)),
                photodetection.snr_of(nbar, surv, bg) if bg > 0 else None,
            )
        poisson, efficiency, snr = bounds[surv]
        rows.append({
            "scenario": cfg.scenario,
            "state": state,
            "angle_deg": round(math.degrees(theta), 9),
            "time_us": t_us,
            "fidelity_raw": f,
            "fidelity_corrected": f_corr[j],
            "bound_poisson": poisson,
            "bound_efficiency": efficiency,
            "pass_shor_preskill": security.shor_preskill_pass(f),
            "_extras": {
                "survival": surv,
                "snr": snr,
                "stokes_raw": stokes,
                "rho_raw": rho,
                "rho_corrected": rho_corr[j],
                "job_seed": seed,
            },
        })
    return rows


def simulate_point(state_name: str, cfg: ExperimentConfig, t_us: float,
                   theta: float, job_seed: int) -> dict:
    """One (state, time, angle) job: full pipeline plus benchmark columns."""
    return _simulate(cfg, [(state_name, t_us, theta)], [job_seed])[0]


def _rho_to_lists(rho: np.ndarray) -> list[dict]:
    """JSON form of a stack of density matrices (N, 2, 2)."""
    return [{"real": re, "imag": im} for re, im in zip(rho.real.tolist(), rho.imag.tolist())]


# --- scenario runners --------------------------------------------------------

@dataclass
class Report:
    config: ExperimentConfig
    rows: list[dict] = field(default_factory=list)
    bounds_rows: list[dict] = field(default_factory=list)
    density: dict[str, dict] = field(default_factory=dict)
    pixmaps: list[tuple[str, str]] = field(default_factory=list)  # (name, text)


def _jobs(cfg: ExperimentConfig) -> list[tuple[str, float, float]]:
    """Canonical job enumeration (state outermost, then time, then angle)."""
    if cfg.scenario == "store_tomography":
        return [(s, cfg.storage_times[0], 0.0) for s in cfg.input_states]
    if cfg.scenario == "fidelity_vs_time":
        return [(s, t, 0.0) for s in cfg.input_states for t in cfg.storage_times]
    if cfg.scenario == "fidelity_vs_rotation":
        return [(s, cfg.storage_times[0], a) for s in cfg.input_states
                for a in cfg.rotation_angles]
    return []


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
    jobs = _jobs(cfg)
    report.rows = _simulate(cfg, jobs, [cfg.seed ^ index for index in range(len(jobs))])
    if cfg.scenario == "store_tomography":
        for row in report.rows:
            extras = row["_extras"]
            report.density[row["state"]] = {
                "rho_raw": extras["rho_raw"],
                "rho_corrected": extras["rho_corrected"],
                "fidelity_raw": row["fidelity_raw"],
                "fidelity_corrected": row["fidelity_corrected"],
            }
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


def _hsv_to_rgb(h: np.ndarray, s: np.ndarray, v: np.ndarray) -> np.ndarray:
    i = np.floor(h * 6.0).astype(int) % 6
    f = h * 6.0 - np.floor(h * 6.0)
    p = v * (1.0 - s)
    q = v * (1.0 - s * f)
    t = v * (1.0 - s * (1.0 - f))
    r = np.choose(i, [v, q, p, p, t, v])
    g = np.choose(i, [t, v, v, q, p, p])
    b = np.choose(i, [p, p, t, v, v, q])
    return np.stack([r, g, b], axis=-1)


def render_ppm(hue: np.ndarray, intensity: np.ndarray, maxval: int = 255) -> str:
    """ASCII PPM (P3): hue encodes polarization azimuth, value the intensity."""
    if not np.isfinite(hue).all():
        raise ValueError("pixmap hue must be finite")
    rgb = _hsv_to_rgb(np.mod(hue, 1.0), np.ones_like(hue), _scaled(intensity))
    pixels = np.rint(rgb * maxval).astype(int)
    ny, nx = hue.shape
    return _pixmap_text("P3", nx, ny, maxval, pixels.reshape(ny, 3 * nx))


def render_grid_csv(values: np.ndarray) -> str:
    """CSV of a 2-D float grid, each cell the shortest round-trip repr.

    Each distinct value is formatted once.  Values are told apart by their
    bit pattern, so -0.0 and 0.0 keep their own text.  A float repr holds no
    delimiter or quote, so the rows need no CSV quoting.
    """
    values = np.ascontiguousarray(values, dtype=float)
    bits, inverse = np.unique(values.view(np.int64).ravel(), return_inverse=True)
    text = np.array([repr(v) for v in bits.view(float).tolist()], dtype=object)
    cells = text[inverse.reshape(values.shape)]
    return "".join(",".join(row) + "\n" for row in cells.tolist())


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


def _csv_text(rows: list[dict], columns: tuple[str, ...]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(columns), lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: row[k] for k in columns})
    return buf.getvalue()


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

    if report.rows:
        if "csv" in formats:
            _write("results.csv", _csv_text(report.rows, CSV_COLUMNS))
        if "json-lines" in formats:
            lines = []
            for row in report.rows:
                payload = {k: v for k, v in row.items() if k != "_extras"}
                payload.update(row["_extras"])
                lines.append(json.dumps(payload, sort_keys=True))
            _write("results.jsonl", "\n".join(lines) + "\n")
    if report.bounds_rows and "csv" in formats:
        cols = tuple(report.bounds_rows[0].keys())
        _write("bounds.csv", _csv_text(report.bounds_rows, cols))
    if report.density and "json-lines" in formats:
        _write("density_matrices.json", json.dumps(report.density, sort_keys=True, indent=2) + "\n")
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
    for path in written:
        print(f"wrote {path}")
    for row in report.rows:
        f_corr = row["fidelity_corrected"]
        print(
            f"{row['state']:>10s}  angle={row['angle_deg']:6.1f} deg  "
            f"t={row['time_us']:5.2f} us  F_raw={row['fidelity_raw']:.4f}  "
            f"F_corr={'  none' if f_corr is None else f'{f_corr:.4f}'}  "
            f"bound={row['bound_efficiency']:.4f}  "
            f"secure={'yes' if row['pass_shor_preskill'] else 'no'}"
        )
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
