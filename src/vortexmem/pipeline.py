"""The simulated apparatus as a batched job pipeline, and the scenario runs.

Scenarios compose the full simulated apparatus: state preparation (with or
without the encoding plate), dual-rail storage, detection-frame rotation,
decoding, weak-coherent click statistics and tomography.  Every fidelity
row carries the matching classical-memory bounds and the key-distribution
threshold verdict; runs are bit-reproducible for a fixed (config, seed)
pair.

A job scenario runs over three axes, states x storage times x angles,
state outermost (config._SCENARIOS gives each scenario's times and
angles).  States are prepared once per listed state, the memory's
closed-form gains (memory.rail_gains) once per listed storage time and the
frame rotation's phases once per listed angle; broadcast against each
other they give the light at the analyzers, flattened to a job axis, and
the click statistics, tomography, fidelities and every ResultTable column
work on arrays with one row per job.  A run draws all its click counts
from one stream, default_rng(seed): job by job in that order, each job's
six projectors in H, V, D, A, R, L order.
The job_seed of every row is that run seed.  Arithmetic on the job axis is
elementwise, so row 0 of a run is bit for bit the one-job run
simulate_point(..., job_seed=seed).  The batch is a ResultTable of
columns, which the text module writes; a result exists only in those two
forms, so the row dicts of ResultTable.rows and simulate_point are the
results.jsonl lines, parsed.

A run returns a Report: the ResultTable of a job scenario, or the
finished (file name, text) pairs of bounds_table and field_maps.  In
field_maps, states whose intensity (and, for the PPM, azimuth) arrays are
bit-identical share their rendered text: each distinct array is rendered
once per run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from . import fields, hilbert, memory, optics, photodetection, security, tomography
from .config import _SCENARIOS, BOUNDS_NBAR_GRID, ExperimentConfig
from .hilbert import BasisTag, HybridState, named_state
from .text import _bounds_text, _parsed, _results_text, render_grid_csv, render_pgm, render_ppm


# the six projection weights of L- and R-polarized light: the leak of the
# memory after the decoding plate
_LEAK_WEIGHTS = photodetection.projection_weights(
    np.array([(psi.c0, psi.c1) for psi in map(named_state, "LR")]))


def _light(cfg: ExperimentConfig, states, times, angles
           ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Signal weight per projector (J, 6), survival (J,) and decoded target
    amplitudes (J, 2) of the light at the analyzers, one row per job of the
    axes: each state, then each storage time, then each angle.

    The memory is its closed form, memory.rail_gains.  A hybrid state comes
    back as itself with weight |g|^2, times the two plate passes; its leak
    decodes to L-polarized light of weight |c0 h|^2 and R-polarized light of
    weight |c1 h|^2, in modes of their own, which add to the click rates
    without interfering.  Retrieved polarization light, (g c0 + h c1,
    h c0 + g c1), turns with the detection frame: its amplitudes times the
    frame phases of the job's angle, in Python's complex-product arithmetic
    on the real and imaginary parts.  Decoded hybrid states carry zero total
    angular momentum and do not turn.
    """
    inputs = [named_state(state) for state in states]
    if cfg.encode_with_qplate:
        inputs = [optics.qplate_apply(psi, cfg.qplate)
                  if psi.basis_tag is BasisTag.POLARIZATION else psi for psi in inputs]
    hybrid = np.array([psi.basis_tag is BasisTag.HYBRID_POINCARE for psi in inputs])[:, None]
    decoded = [optics.qplate_decode(psi, cfg.qplate) if hyb else psi
               for psi, hyb in zip(inputs, hybrid.ravel().tolist())]
    # amplitudes (S, 1, 2) against gains (T, 1): light (S, T, 2)
    c, targets = (np.array([(psi.c0, psi.c1) for psi in psis], dtype=complex)[:, None]
                  for psis in (inputs, decoded))
    g, h = (x[:, None] for x in memory.rail_gains(cfg.memory, times))
    pol = g * c + h * c[..., ::-1]
    power = (np.abs(pol) ** 2).sum(-1)
    conv = optics.conversion_probability(cfg.qplate) ** 2   # encode and decode pass
    gain = np.broadcast_to(g, power.shape + (1,))
    weights = np.where(hybrid[..., None], conv * np.abs(np.concatenate([gain, c * h], -1)) ** 2,
                       np.pad(power[..., None], ((0, 0), (0, 0), (0, 2))))
    # light that retrieves nothing keeps its target as the (weightless) light
    targets = np.broadcast_to(targets, pol.shape)
    amps = np.divide(pol, np.sqrt(power)[..., None], out=targets.copy(),
                     where=(~hybrid & (power > 0))[..., None])[:, :, None]
    phases = np.array([optics._frame_phases(theta)
                       for theta in np.asarray(angles, dtype=float).tolist()])
    turned = np.empty(amps.shape[:2] + phases.shape, dtype=complex)
    turned.real = amps.real * phases.real - amps.imag * phases.imag
    turned.imag = amps.real * phases.imag + amps.imag * phases.real
    # (S, T, A, ...) flattened to the job axis
    light = np.where(hybrid[..., None, None], amps, turned).reshape(-1, 2)
    w = weights.repeat(len(phases), 1).reshape(-1, 3)
    signal = (w[:, :1] * photodetection.projection_weights(light)
              + w[:, 1:2] * _LEAK_WEIGHTS[0] + w[:, 2:] * _LEAK_WEIGHTS[1])
    return signal, w[:, 0] + w[:, 1] + w[:, 2], targets.repeat(len(phases), 1).reshape(-1, 2)


def propagate(state_name: str, cfg: ExperimentConfig, t_us: float,
              theta: float) -> SimpleNamespace:
    """The light of one job at the analyzers: its ``signal`` (1, 6) and
    ``survival`` (1,), and its decoded ``target`` state."""
    signal, survival, targets = _light(cfg, [state_name], [t_us], [theta])
    target = HybridState(*targets[0].tolist(), BasisTag.POLARIZATION)
    return SimpleNamespace(signal=signal, survival=survival, target=target)


def _detect(cfg: ExperimentConfig, signal: np.ndarray, survival: np.ndarray,
            seed: int) -> tuple[np.ndarray, float, int]:
    """Counts (J, 6), expected background clicks and trials per projector;
    sampled counts come from one stream, default_rng(seed), in row order.

    The clamps of click inputs at 1 are against round-off in the sums and
    ratios of weights: at eta_H = 1 the closed form gives a survival or
    signal of 1 as up to 1 + 4.4e-16.
    """
    nbar = cfg.source.nbar
    bg = cfg.memory.bg_click
    if cfg.trials_per_projection == 0:
        # exact mode: expectation-valued counts for the linearized detector
        scale = 1.0 / (1.0 + nbar)
        counts, bg_expected, trials = (bg + nbar * np.minimum(1.0, signal)) * scale, bg * scale, 1
    else:
        trials = cfg.trials_per_projection
        lit = survival[:, None] > 0
        proj = np.divide(signal, survival[:, None], out=np.zeros_like(signal), where=lit)
        probs = photodetection.click_probabilities(
            nbar, np.minimum(1.0, survival), np.minimum(1.0, proj), bg)
        counts, bg_expected = photodetection.sample_counts(probs, trials, seed), bg * trials
    photodetection.check_counts(counts, trials)
    return counts, bg_expected, trials


def detection_records(light: SimpleNamespace, cfg: ExperimentConfig,
                      job_seed: int) -> list[photodetection.CountRecord]:
    """The six count records of the light of one job (see propagate)."""
    counts, bg_expected, trials = _detect(cfg, light.signal, light.survival, job_seed)
    return [photodetection.CountRecord(name, c, trials, bg_expected)
            for name, c in zip(photodetection.PROJECTOR_ORDER, counts[0].tolist())]


@dataclass(frozen=True, eq=False)   # == on array fields has no single truth value
class ResultTable:
    """Results of a batch of jobs as columns, each holding one value per job:
    the array form of the results, whose text form text.emit writes.

    A job has a background-corrected estimate (``corrected`` true) when it
    retrieved some signal and its counts, less the expected background,
    leave every basis pair more than zero clicks; the ``f_corr`` and
    ``rho_corr`` entries of any other job are zero placeholders.
    """

    scenario: str
    states: list[str]           # (J,)
    times: list[float]          # (J,) storage times as given: int or float
    seed: int                   # the stream all counts were drawn from
    angle_deg: np.ndarray       # (J,) round(degrees(theta), 9)
    f_raw: np.ndarray           # (J,)
    f_corr: np.ndarray          # (J,)
    corrected: np.ndarray       # (J,) bool
    stokes: np.ndarray          # (J, 3) raw Stokes vectors, before projection
    rho_raw: np.ndarray         # (J, 2, 2)
    rho_corr: np.ndarray        # (J, 2, 2)
    survival: np.ndarray        # (J,) clamped to [1e-12, 1]
    bound_poisson: np.ndarray   # (J,)
    bound_efficiency: np.ndarray  # (J,)
    snr: np.ndarray | None      # (J,); None without background clicks
    secure: np.ndarray          # (J,) Shor-Preskill verdict on f_raw

    def rows(self) -> list[dict]:
        """The results.jsonl lines of the table, parsed: one dict per job."""
        return _parsed(_results_text(self)[1])


def _simulate(cfg: ExperimentConfig, states, times, angles, seed: int) -> ResultTable:
    """Result table of the jobs of the axes (see _light): the pipeline over a
    job axis.

    The counts of all jobs come from one stream, default_rng(seed), in job
    order.  Bounds and SNR depend on a job only through its survival, so
    they are computed once per distinct survival.
    """
    signal, survival, targets = _light(cfg, states, times, angles)
    job_states = [state for state in states for _ in range(len(times) * len(angles))]
    job_times = [t_us for _ in states for t_us in times for _ in angles]
    degrees = [round(math.degrees(theta), 9) for theta in np.asarray(angles, dtype=float).tolist()]
    counts, bg_expected, _ = _detect(cfg, signal, survival, seed)
    try:
        stokes, rho_raw = tomography.reconstruct(counts)
    except tomography.InsufficientCounts as exc:
        j = int(np.argwhere(counts[:, 0::2] + counts[:, 1::2] == 0)[0, 0])
        raise tomography.InsufficientCounts(
            f"{exc} in the job of {job_states[j]} at {job_times[j]} us, "
            f"{degrees[j % len(angles)]} deg") from None
    f_raw = hilbert.fidelities(rho_raw, targets)
    net = tomography.subtract_background(counts, bg_expected)
    corrected = (survival > 0) & (net[:, 0::2] + net[:, 1::2] > 0).all(1)
    f_corr, rho_corr = np.zeros_like(f_raw), np.zeros_like(rho_raw)
    _, rho = tomography.reconstruct(net[corrected])
    f_corr[corrected] = hilbert.fidelities(rho, targets[corrected])
    rho_corr[corrected] = rho

    nbar, bg = cfg.source.nbar, cfg.memory.bg_click
    survival = np.minimum(1.0, np.maximum(1e-12, survival))
    levels, level = np.unique(survival, return_inverse=True)
    levels = levels.tolist()
    return ResultTable(
        scenario=cfg.scenario,
        states=job_states,
        times=job_times,
        seed=seed,
        angle_deg=np.tile(degrees, len(states) * len(times)),
        f_raw=f_raw,
        f_corr=f_corr,
        corrected=corrected,
        stokes=stokes,
        rho_raw=rho_raw,
        rho_corr=rho_corr,
        survival=survival,
        bound_poisson=np.full(len(survival), security.classical_bound_poisson(nbar)),
        bound_efficiency=np.array([
            security.classical_bound_with_efficiency(security.BenchmarkInput(nbar, s))
            for s in levels])[level],
        snr=np.array([photodetection.snr_of(nbar, s, bg) for s in levels])[level]
        if bg > 0 else None,
        secure=security.shor_preskill_passes(f_raw),
    )


def simulate_point(state_name: str, cfg: ExperimentConfig, t_us: float,
                   theta: float, job_seed: int) -> dict:
    """One (state, time, angle) job: its results.jsonl line, parsed."""
    return _simulate(cfg, [state_name], [t_us], [theta], job_seed).rows()[0]


# --- scenario runners --------------------------------------------------------

@dataclass
class Report:
    """What a run made: the result table of a job scenario, or the finished
    (file name, text) pairs of any other scenario's files."""
    table: ResultTable | None = None
    texts: list[tuple[str, str]] = field(default_factory=list)


def run(cfg: ExperimentConfig) -> Report:
    cfg.validate()
    if cfg.scenario == "bounds_table":
        nbars = sorted(set(BOUNDS_NBAR_GRID) | {cfg.source.nbar})
        return Report(texts=[("bounds.csv", _bounds_text([{
            "nbar": nbar,
            "eta": cfg.memory.eta0,
            "bound_nphoton_1": security.classical_bound_nphoton(1),
            "bound_poisson": security.classical_bound_poisson(nbar),
            "bound_efficiency": security.classical_bound_with_efficiency(
                security.BenchmarkInput(nbar, cfg.memory.eta0)),
            "shor_preskill_threshold": security.SHOR_PRESKILL_THRESHOLD,
        } for nbar in nbars]))])
    if cfg.scenario == "field_maps":
        import hashlib   # here rather than at the top: it slows every import of the cli

        grid = fields.Grid()
        report = Report()
        # each text rendered once per run, keyed on the renderer and the SHA-256
        # of its input arrays (all of one shape and dtype)
        texts: dict[tuple, str] = {}
        for name in cfg.input_states:
            fmap = fields.vector_field_map(named_state(name), grid)
            intensity = fmap.intensity()
            hue = fields.polarization_azimuth(fmap) / math.pi
            i, h = (hashlib.sha256(np.ascontiguousarray(a)).digest() for a in (intensity, hue))
            for file, render, arrays, digests in (
                (f"{name}_intensity.pgm", render_pgm, (intensity,), (i,)),
                (f"{name}_polarization.ppm", render_ppm, (hue, intensity), (h, i)),
                (f"{name}_intensity.csv", render_grid_csv, (intensity,), (i,)),
            ):
                key = (render, *digests)
                if key not in texts:
                    texts[key] = render(*arrays)
                report.texts.append((file, texts[key]))
        return report
    times, angles = _SCENARIOS[cfg.scenario][1](cfg)
    return Report(table=_simulate(cfg, cfg.input_states, times, angles, cfg.seed))
