"""The simulated apparatus as a batched job pipeline, and the scenario runs.

Scenarios compose the full simulated apparatus: state preparation (with or
without the encoding plate), dual-rail storage, detection-frame rotation,
decoding, weak-coherent click statistics and tomography.  Every fidelity
row carries the matching classical-memory bounds and the key-distribution
threshold verdict; runs are bit-reproducible for a fixed (config, seed)
pair.

A job scenario runs the grid of the config's three axes, input_states x
storage_times x rotation_angles, state outermost; a one-job run is a
config that lists one of each.  States are prepared once per listed state,
the memory's closed-form gains (memory.rail_gains) once per listed storage
time and the frame rotation's phases once per listed angle; broadcast
against each other they give the light at the analyzers, flattened to a
job axis, and the click statistics, tomography, fidelities and every
ResultTable column work on arrays with one row per job.  A run draws all
its click counts from one stream, default_rng(seed): job by job in that
order, each job's six projectors in H, V, D, A, R, L order.  The job_seed
of every row is that run seed.  Arithmetic on the job axis is
elementwise, so row 0 of a run is bit for bit the one-job run of its first
state, time and angle at the same seed.  The batch is a ResultTable of
columns, which the text module writes; a result exists only in those two
forms.

A run returns a Report: the ResultTable of a job scenario, or the
finished (file name, text) pairs of bounds_table and field_maps.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field, replace
from types import SimpleNamespace

import numpy as np

from . import fields, hilbert, memory, optics, photodetection, security, tomography
from .config import BOUNDS_NBAR_GRID, ExperimentConfig
from .hilbert import HYBRID_SPHERE_NAMES, POLARIZATION_NAMES, named_state
from .text import _bounds_text, render_grid_csv, render_pgm, render_ppm


# the six projection weights of L- and R-polarized light: the leak of the
# memory after the decoding plate
_LEAK_WEIGHTS = photodetection.projection_weights(np.array([named_state("L"), named_state("R")]))


def _light(cfg: ExperimentConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Signal weight per projector (J, 6), survival (J,) and decoded target
    amplitudes (J, 2) of the light at the analyzers, one row per job of the
    config's axes: each state, then each storage time, then each angle.

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
    # a state is stored on the hybrid sphere if it is named there or the
    # plate encodes it; the plate passes stay in Python complex arithmetic,
    # which rounds differently from numpy's complex multiply
    hybrid = [cfg.encode_with_qplate or state in HYBRID_SPHERE_NAMES
              for state in cfg.input_states]
    inputs = [optics.qplate_pass(named_state(state), cfg.qplate, +1)
              if hyb and state in POLARIZATION_NAMES else named_state(state)
              for state, hyb in zip(cfg.input_states, hybrid)]
    decoded = [optics.qplate_pass(c, cfg.qplate, -1) if hyb else c
               for c, hyb in zip(inputs, hybrid)]
    hybrid = np.array(hybrid)[:, None]
    # amplitudes (S, 1, 2) against gains (T, 1): light (S, T, 2)
    c, targets = (np.array(amps, dtype=complex)[:, None] for amps in (inputs, decoded))
    g, h = (x[:, None] for x in memory.rail_gains(cfg.memory, cfg.storage_times))
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
                       for theta in np.asarray(cfg.rotation_angles, dtype=float).tolist()])
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
    ``survival`` (1,), and the amplitudes (2,) of its decoded ``target``
    state in the (|R>, |L>) basis."""
    signal, survival, targets = _light(replace(
        cfg, input_states=(state_name,), storage_times=(t_us,), rotation_angles=(theta,)))
    return SimpleNamespace(signal=signal, survival=survival, target=targets[0])


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

    A job has a raw estimate (``reconstructed`` true) when its counts leave
    every basis pair some clicks, and a background-corrected one
    (``corrected`` true) when its counts less the expected background do
    and it retrieved some signal.  Without one, its ``f_raw``, ``stokes``,
    ``rho_raw`` and ``secure``, or its ``f_corr`` and ``rho_corr``, are zero
    placeholders.
    """

    scenario: str
    states: list[str]           # (J,)
    times: list[float]          # (J,) storage times as given: int or float
    seed: int                   # the stream all counts were drawn from
    angle_deg: np.ndarray       # (J,) round(degrees(theta), 9)
    f_raw: np.ndarray           # (J,)
    f_corr: np.ndarray          # (J,)
    reconstructed: np.ndarray   # (J,) bool
    corrected: np.ndarray       # (J,) bool
    stokes: np.ndarray          # (J, 3) raw Stokes vectors, before projection
    rho_raw: np.ndarray         # (J, 2, 2)
    rho_corr: np.ndarray        # (J, 2, 2)
    survival: np.ndarray        # (J,) clamped to [1e-12, 1]
    bound_poisson: float        # the same for every job: it depends on nbar alone
    bound_efficiency: np.ndarray  # (J,)
    snr: np.ndarray | None      # (J,); None without background clicks
    secure: np.ndarray          # (J,) Shor-Preskill verdict on f_raw


def _estimate(counts: np.ndarray, targets: np.ndarray,
              lit=True) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Stokes vectors (J, 3), density matrices (J, 2, 2) and fidelities (J,)
    of the jobs whose counts (J, 6) leave every basis pair some clicks and
    that are ``lit``, and that mask (J,); the other rows are zeros."""
    ok = lit & (counts[:, 0::2] + counts[:, 1::2] > 0).all(1)
    stokes, rho, f = np.zeros((len(ok), 3)), np.zeros((len(ok), 2, 2), complex), np.zeros(len(ok))
    stokes[ok], rho[ok] = tomography.reconstruct(counts[ok])
    f[ok] = hilbert.fidelities(rho[ok], targets[ok])
    return stokes, rho, f, ok


def _simulate(cfg: ExperimentConfig) -> ResultTable:
    """Result table of the jobs of the config's axes (see _light): the
    pipeline over a job axis.

    The counts of all jobs come from one stream, default_rng(cfg.seed), in
    job order.  Both estimates follow one rule (_estimate): a job without
    one holds placeholders in its columns, and the run goes on.  Bounds and
    SNR depend on a job only through its survival, so they are computed
    once per distinct survival.
    """
    states, times, angles = cfg.input_states, cfg.storage_times, cfg.rotation_angles
    signal, survival, targets = _light(cfg)
    degrees = [round(math.degrees(theta), 9) for theta in np.asarray(angles, dtype=float).tolist()]
    counts, bg_expected, _ = _detect(cfg, signal, survival, cfg.seed)
    stokes, rho_raw, f_raw, reconstructed = _estimate(counts, targets)
    _, rho_corr, f_corr, corrected = _estimate(
        tomography.subtract_background(counts, bg_expected), targets, survival > 0)

    nbar, bg = cfg.source.nbar, cfg.memory.bg_click
    survival = np.minimum(1.0, np.maximum(1e-12, survival))
    levels, level = np.unique(survival, return_inverse=True)
    levels = levels.tolist()
    return ResultTable(
        scenario=cfg.scenario,
        states=[state for state in states for _ in range(len(times) * len(angles))],
        times=[t_us for _ in states for t_us in times for _ in angles],
        seed=cfg.seed,
        angle_deg=np.tile(degrees, len(states) * len(times)),
        f_raw=f_raw,
        f_corr=f_corr,
        reconstructed=reconstructed,
        corrected=corrected,
        stokes=stokes,
        rho_raw=rho_raw,
        rho_corr=rho_corr,
        survival=survival,
        bound_poisson=security.classical_bound_poisson(nbar),
        bound_efficiency=np.array([
            security.classical_bound_with_efficiency(security.BenchmarkInput(nbar, s))
            for s in levels])[level],
        snr=np.array([photodetection.snr_of(nbar, s, bg) for s in levels])[level]
        if bg > 0 else None,
        secure=security.shor_preskill_passes(f_raw),
    )


# --- scenario runners --------------------------------------------------------

@dataclass
class Report:
    """What a run made: the result table of a job scenario, or the finished
    (file name, text) pairs of any other scenario's files."""
    table: ResultTable | None = None
    texts: list[tuple[str, str]] = field(default_factory=list)


def run(cfg: ExperimentConfig) -> Report:
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
        # every state field_maps takes is a unit-power hybrid state of charge
        # +-1, whose maps are closed forms (see fields): one intensity |LG_1|^2
        # for the PGM and CSV, and a PPM per relative phase and saturation
        grid = fields.Grid()
        carrier = fields.lg_amplitude(+1, grid)
        intensity = carrier.real * carrier.real + carrier.imag * carrier.imag
        pgm, csv = render_pgm(intensity), render_grid_csv(intensity)
        ppms, texts = {}, []
        for name in cfg.input_states:
            c0, c1 = named_state(name)
            turn, s = cmath.phase(c0.conjugate() * c1), 2.0 * abs(c0) * abs(c1)
            if (turn, s) not in ppms:
                ppms[turn, s] = render_ppm(fields.azimuth(turn, grid) / math.pi, intensity, s)
            texts += [(f"{name}_intensity.pgm", pgm), (f"{name}_polarization.ppm", ppms[turn, s]),
                      (f"{name}_intensity.csv", csv)]
        return Report(texts=texts)
    return Report(table=_simulate(cfg))
