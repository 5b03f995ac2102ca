"""Per-job reference implementations of the batched pipeline.

The package runs jobs, reconstructions and bootstrap resamples as arrays
over a leading job axis.  These are the one-job-at-a-time compositions it
replaced, built from the package's unchanged scalar pieces (states, optics,
memory, bounds), so the tests can require the batch to reproduce them bit
for bit.

The memory's physics reference is the dual-rail chain the package's
closed form (memory.rail_gains) replaced: beam-displacer split into H and
V rails resolved over OAM labels, rail scaling by the memory, and
recombination into a logical state plus leak.  Tests check the closed
form against it to round-off.  Real arithmetic is plain Python; complex products, magnitudes and
exponentials are numpy ufuncs on one state's amplitudes, since numpy's
complex multiply, abs and exp round differently from Python's.  Counts are
scalar draws, job by job and projector by projector, from one generator per
run: the order in which the package's single array draw consumes its stream.

The field-map renderers and the result writers format whole arrays, each
distinct value once; the per-pixel renderers and the per-row writers
(json.dumps, csv.DictWriter, print) they replaced are kept at the end of
this file as the byte-exact reference.
"""

import cmath
import csv
import io
import itertools
import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from vortexmem import cli, config, memory, optics, pipeline, security
from vortexmem.hilbert import (ATOL_BALL, ATOL_EIGEN, ATOL_HERMITIAN, ATOL_TRACE, TAU1,
                               TAU2, TAU3, BasisTag, HybridState,
                               NonPhysicalDensity, OutsideBall, make_state, named_state)
from vortexmem.photodetection import PROJECTOR_ORDER, PROJECTOR_PAIRS, CountRecord, snr_of
from vortexmem.text import CSV_COLUMNS
from vortexmem.tomography import InsufficientCounts

_ANALYZERS = {name: named_state(name) for name in PROJECTOR_ORDER}
_SQRT2 = math.sqrt(2.0)


# --- the dual-rail chain -----------------------------------------------------

class VacuumOutput(ValueError):
    """Both rail amplitudes are zero; recombination has no state to return."""


@dataclass(frozen=True)
class DualRailState:
    """Amplitudes of the H and V displacer rails, resolved over OAM labels.

    ``rail_h[k]`` is the amplitude of OAM mode ``oam_labels[k]`` in the H
    rail.  ``rail_phase`` is the relative phase imparted between the two
    interferometric paths; it is applied to the V rail on recombination.
    Total power may drop below 1 after a lossy channel.
    """

    rail_h: tuple[complex, ...]
    rail_v: tuple[complex, ...]
    oam_labels: tuple[int, ...]
    rail_phase: float = 0.0

    def __post_init__(self):
        if not (len(self.rail_h) == len(self.rail_v) == len(self.oam_labels)):
            raise ValueError("rail amplitude vectors must match the OAM labels")

    def power(self) -> float:
        return float(sum(abs(a) ** 2 for a in self.rail_h + self.rail_v))


def scalar_rails(h: complex, v: complex, rail_phase: float = 0.0) -> DualRailState:
    """Rail pair for a polarization state (single OAM-0 mode per rail)."""
    return DualRailState((complex(h),), (complex(v),), (0,), rail_phase)


@dataclass(frozen=True)
class RecombineResult:
    state: HybridState
    throughput: float                         # total recombined power, leak included
    leak: tuple[complex, complex] = (0j, 0j)  # amplitudes on (|R,-1>, |L,+1>)

    @property
    def leak_power(self) -> float:
        """Power diverted outside the logical two-space."""
        return abs(self.leak[0]) ** 2 + abs(self.leak[1]) ** 2


def jones_of(psi: HybridState) -> tuple[complex, complex]:
    """H/V Jones components of a polarization-basis state."""
    if psi.basis_tag is not BasisTag.POLARIZATION:
        raise ValueError("jones_of expects a polarization-basis state")
    return ((psi.c0 + psi.c1) / _SQRT2, 1j * (psi.c1 - psi.c0) / _SQRT2)


def displacer_split(psi: HybridState) -> DualRailState:
    """Split a state into H and V rails, OAM content carried per rail.

    Polarization states occupy a single OAM-0 mode per rail; hybrid states
    spread |L,-1> and |R,+1> polarization content over both rails:
    |0> = |L,-1> lands on rails (1/sqrt2, +i/sqrt2), both in OAM -1.
    """
    if psi.basis_tag is BasisTag.POLARIZATION:
        h, v = jones_of(psi)
        return scalar_rails(h, v)
    # |L> = (|H> + i|V>)/sqrt2 and |R> = (|H> - i|V>)/sqrt2, applied to the
    # OAM -1 and +1 logical components respectively.
    rail_h = (psi.c0 / _SQRT2, psi.c1 / _SQRT2)
    rail_v = (1j * psi.c0 / _SQRT2, -1j * psi.c1 / _SQRT2)
    return DualRailState(rail_h, rail_v, (-1, +1), 0.0)


def store_retrieve(d: DualRailState, p, t: float) -> DualRailState:
    """Map rail amplitudes through the memory for a storage time t (us).

    Each rail is scaled by sqrt of its efficiency, the rail phase error is
    accumulated, and the OAM content rides along unchanged (the ensemble is
    spatially multimode and mode-preserving).
    """
    eta_h, eta_v = memory.rail_efficiencies(p, t)
    sh, sv = math.sqrt(eta_h), math.sqrt(eta_v)
    return replace(
        d,
        rail_h=tuple(a * sh for a in d.rail_h),
        rail_v=tuple(a * sv for a in d.rail_v),
        rail_phase=d.rail_phase + p.rail_phase_error,
    )


def displacer_recombine(d: DualRailState) -> RecombineResult:
    """Recombine the rails into a logical state plus throughput.

    Inverse of displacer_split at rail_phase = 0 and no loss.  Rail
    imbalance or phase error on hybrid states populates the orthogonal
    spin-orbit combinations (|R,-1>, |L,+1>); that weight is reported as
    leak_power and the returned state is the renormalized logical part.
    Throughput is the full recombined power, leak included.
    """
    total = d.power()
    if total == 0.0:
        raise VacuumOutput("both rails are empty")
    phase = cmath.exp(1j * d.rail_phase)
    if d.oam_labels == (0,):
        h = d.rail_h[0]
        v = d.rail_v[0] * phase
        c0 = (h + 1j * v) / _SQRT2   # |R> component
        c1 = (h - 1j * v) / _SQRT2   # |L> component
        state = make_state(c0, c1, BasisTag.POLARIZATION)
        return RecombineResult(state, total)
    a_h = np.asarray(d.rail_h, dtype=complex)
    a_v = np.asarray(d.rail_v, dtype=complex) * phase
    keep0 = (a_h[0] - 1j * a_v[0]) / _SQRT2   # <L,-1|
    keep1 = (a_h[1] + 1j * a_v[1]) / _SQRT2   # <R,+1|
    leak0 = (a_h[0] + 1j * a_v[0]) / _SQRT2   # <R,-1|
    leak1 = (a_h[1] - 1j * a_v[1]) / _SQRT2   # <L,+1|
    if abs(keep0) ** 2 + abs(keep1) ** 2 == 0.0:
        raise VacuumOutput("recombined state has no logical component")
    state = make_state(keep0, keep1, BasisTag.HYBRID_POINCARE)
    return RecombineResult(state, total, (complex(leak0), complex(leak1)))


def rail_chain_light(psi: HybridState, cfg, t_us: float, theta: float):
    """(weight, polarization state) of each part of the light that reaches
    the analyzers, through the dual-rail chain, for an encoded input psi:
    the decoded logical state and, for hybrid states, the L- and R-polarized
    light their leak decodes to."""
    rec = displacer_recombine(store_retrieve(displacer_split(psi), cfg.memory, t_us))
    if psi.basis_tag is BasisTag.POLARIZATION:
        return [(rec.throughput, rotate_frame(rec.state, theta))]
    conv = optics.conversion_probability(cfg.qplate) ** 2
    return [(conv * (rec.throughput - rec.leak_power), optics.qplate_decode(rec.state, cfg.qplate)),
            (conv * abs(rec.leak[0]) ** 2, named_state("L")),
            (conv * abs(rec.leak[1]) ** 2, named_state("R"))]


def rotate_frame(psi: HybridState, theta: float) -> HybridState:
    """View the state in a detection frame rotated by theta about the beam axis.

    Polarization basis: |R> -> exp(-i theta)|R>, |L> -> exp(+i theta)|L>
    (linear polarizations rotate by theta).  Hybrid basis: each logical
    state carries zero total angular momentum, so the state is unchanged.
    """
    if psi.basis_tag is BasisTag.HYBRID_POINCARE:
        return psi
    p0, p1 = optics._frame_phases(theta)
    return HybridState(psi.c0 * p0, psi.c1 * p1, BasisTag.POLARIZATION)


# --- detection ---------------------------------------------------------------

def _braket(bra, ket):
    """<bra|ket> as a one-element array."""
    return (bra.vector().conj() * ket.vector()).sum(-1, keepdims=True)


def projection_probabilities(psi):
    weight = {name: (np.abs(_braket(_ANALYZERS[name], psi)) ** 2).item()
              for name in PROJECTOR_ORDER}
    probs = {}
    for a, b in PROJECTOR_PAIRS:
        pair = weight[a] + weight[b]
        probs[a], probs[b] = weight[a] / pair, weight[b] / pair
    return {name: probs[name] for name in PROJECTOR_ORDER}


def click_probability(nbar, survival, proj_prob, bg):
    return 1.0 - (1.0 - bg) * np.exp([-nbar * survival * proj_prob]).item()


def simulate_counts(probabilities, trials, rng, bg=0.0):
    """Six scalar draws from ``rng``: a seed, or a run's shared generator."""
    rng = np.random.default_rng(rng)
    return [CountRecord(name, int(rng.binomial(trials, probabilities[name])), trials, bg * trials)
            for name in PROJECTOR_ORDER]


# --- tomography --------------------------------------------------------------

def background_subtract(c):
    corrected = max(0.0, c.clicks - c.bg_clicks_expected)
    if isinstance(c.clicks, (int, np.integer)):
        corrected = int(round(corrected))
    return replace(c, clicks=corrected, bg_clicks_expected=0.0)


def stokes_from_counts(records):
    table = {r.projector_id: r for r in records}
    comps = []
    for plus, minus in PROJECTOR_PAIRS:
        a, b = table[plus].clicks, table[minus].clicks
        if a + b == 0:
            raise InsufficientCounts(f"pair ({plus}, {minus}) has zero counts")
        comps.append((a - b) / (a + b))
    return comps


def density_from_stokes(stokes):
    vec = np.array(stokes, dtype=float)
    length = math.sqrt(sum(c * c for c in stokes))
    if length > 1.0:
        vec = vec / length
    s1, s2, s3 = vec
    if math.sqrt(s1**2 + s2**2 + s3**2) > 1.0 + ATOL_BALL:
        raise OutsideBall("Bloch vector outside the ball")
    return densities_from_bloch(vec[None])[0]


def densities_from_bloch(s):
    """(I + s . tau)/2 of a stack of Bloch vectors (N, 3) as a sum of complex
    matrices, with no ball check: the bits hilbert.densities_from_bloch
    must give."""
    s1, s2, s3 = (s[:, i, None, None] for i in range(3))
    return (np.eye(2, dtype=complex) + s1 * TAU1 + s2 * TAU2 + s3 * TAU3) / 2.0


# one-state maps between pure states, density matrices and Bloch vectors,
# as the package had them before it kept only the stack forms

@dataclass(frozen=True)
class BlochVector:
    s1: float
    s2: float
    s3: float

    def length(self) -> float:
        return math.sqrt(self.s1**2 + self.s2**2 + self.s3**2)


def density_from_pure(psi: HybridState) -> np.ndarray:
    v = psi.vector()
    return np.outer(v, v.conj())


def bloch_of(m: np.ndarray) -> BlochVector:
    return BlochVector(
        float(np.real(np.trace(m @ TAU1))),
        float(np.real(np.trace(m @ TAU2))),
        float(np.real(np.trace(m @ TAU3))),
    )


def check_densities(m):
    """Reference for hilbert.check_densities on finite stacks (N, 2, 2):
    isclose against the adjoint and LAPACK eigenvalues of the Hermitian part.
    It lets equal infinities pass as Hermitian, so it is no reference for
    non-finite elements."""
    adjoint = m.conj().swapaxes(-1, -2)
    if not np.isclose(m, adjoint, atol=ATOL_HERMITIAN, rtol=0.0).all():
        raise NonPhysicalDensity("matrix is not Hermitian")
    trace = np.trace(m, axis1=-2, axis2=-1)
    bad = (np.abs(trace.real - 1.0) > ATOL_TRACE) | (np.abs(trace.imag) > ATOL_TRACE)
    if bad.any():
        raise NonPhysicalDensity(f"trace is {trace[bad][0]}, expected 1")
    eig = np.linalg.eigvalsh((m + adjoint) / 2.0)
    if eig.size and eig.min() < -ATOL_EIGEN:
        raise NonPhysicalDensity(f"negative eigenvalue {eig.min()}")


def validate(m):
    check_densities(m[None])


def conditional_fidelity(m, psi):
    validate(m)
    v = psi.vector()
    f = (v.conj()[:, None] * m * v[None, :]).sum().real.item()
    return min(1.0, max(0.0, f))


def tomograph(records, subtract_bg=False):
    """(Stokes components, density matrix) of six count records."""
    records = list(records)
    if subtract_bg:
        records = [background_subtract(r) for r in records]
    stokes = stokes_from_counts(records)
    return stokes, density_from_stokes(stokes)


def bootstrap_fidelity(records, target, n_resamples=200, seed=0, subtract_bg=False):
    records = list(records)
    rng = np.random.default_rng(seed)
    fids = np.empty(n_resamples)
    for i in range(n_resamples):
        resampled = [
            replace(r, clicks=int(rng.binomial(r.trials, r.clicks / r.trials)))
            for r in records
        ]
        _, m = tomograph(resampled, subtract_bg)
        fids[i] = conditional_fidelity(m, target)
    return float(fids.mean()), float(fids.std())


# --- one job -----------------------------------------------------------------

def propagate(state_name, cfg, t_us, theta):
    """(components, target) of the light reaching the analyzers: the
    closed-form memory on one state's amplitudes, with numpy ufuncs on them
    as the package's arrays, and the frame rotation as a Python complex
    product."""
    psi = named_state(state_name)
    if psi.basis_tag is BasisTag.POLARIZATION and cfg.encode_with_qplate:
        psi = optics.qplate_apply(psi, cfg.qplate)
    g, h = memory.rail_gains(cfg.memory, [t_us])
    c = psi.vector()
    if psi.basis_tag is BasisTag.HYBRID_POINCARE:
        conv = optics.conversion_probability(cfg.qplate) ** 2
        kept, leak_l, leak_r = (conv * np.abs(x) ** 2 for x in (g, c[0] * h, c[1] * h))
        target = optics.qplate_decode(psi, cfg.qplate)
        return [(kept.item(), target), (leak_l.item(), named_state("L")),
                (leak_r.item(), named_state("R"))], target
    light = g * c + h * c[::-1]
    power = (np.abs(light) ** 2).sum()
    if power > 0.0:
        psi_out = HybridState(*(light / np.sqrt(power)).tolist(), BasisTag.POLARIZATION)
    else:
        psi_out = psi   # nothing retrieved: weightless light
    return [(power.item(), rotate_frame(psi_out, theta))], psi


def signal(comps):
    """Signal weight per projector, summed over the components in order, and
    the survival, their summed weight."""
    sig = dict.fromkeys(PROJECTOR_ORDER, 0.0)
    for weight, pol in comps:
        for name, p in projection_probabilities(pol).items():
            sig[name] += weight * p
    return sig, sum(w for w, _ in comps)


def detection_records(comps, cfg, rng):
    nbar = cfg.source.nbar
    bg = cfg.memory.bg_click
    sig, survival = signal(comps)
    if cfg.trials_per_projection == 0:
        scale = 1.0 / (1.0 + nbar)
        return [CountRecord(k, (bg + nbar * min(1.0, s)) * scale * 1, 1, bg * scale * 1)
                for k, s in sig.items()]
    probs = {
        k: click_probability(nbar, min(1.0, survival),
                             min(1.0, s / survival) if survival > 0 else 0.0, bg)
        for k, s in sig.items()
    }
    return simulate_counts(probs, cfg.trials_per_projection, rng, bg=bg)


def shor_preskill_pass(f: float) -> bool:
    """Strictly above the BB84 security-proof threshold F_T = 0.89."""
    return bool(security.shor_preskill_passes(np.array([f], dtype=float))[0])


def _rho_to_lists(m):
    return {"real": np.real(m).tolist(), "imag": np.imag(m).tolist()}


def simulate_point(state_name, cfg, t_us, theta, job_seed, rng=None):
    """One job; its counts come from ``rng``, the run's shared generator,
    or on their own from default_rng(job_seed)."""
    comps, target = propagate(state_name, cfg, t_us, theta)
    records = detection_records(comps, cfg, job_seed if rng is None else rng)
    stokes_raw, rho_raw = tomograph(records, subtract_bg=False)
    # a corrected estimate needs retrieved light and counts left in every
    # pair after background subtraction
    rho_corr = None
    if sum(w for w, _ in comps) > 0:
        try:
            _, rho_corr = tomograph(records, subtract_bg=True)
        except InsufficientCounts:
            pass
    f_raw = conditional_fidelity(rho_raw, target)
    survival = min(1.0, max(1e-12, sum(w for w, _ in comps)))
    nbar = cfg.source.nbar
    return {
        "scenario": cfg.scenario,
        "state": state_name,
        "angle_deg": round(math.degrees(theta), 9),
        "time_us": t_us,
        "fidelity_raw": f_raw,
        "fidelity_corrected": None if rho_corr is None else conditional_fidelity(rho_corr, target),
        "bound_poisson": security.classical_bound_poisson(nbar),
        "bound_efficiency": security.classical_bound_with_efficiency(
            security.BenchmarkInput(nbar, survival)),
        "pass_shor_preskill": shor_preskill_pass(f_raw),
        "survival": survival,
        "snr": snr_of(nbar, survival, cfg.memory.bg_click) if cfg.memory.bg_click > 0 else None,
        "stokes_raw": stokes_raw,
        "rho_raw": _rho_to_lists(rho_raw),
        "rho_corrected": None if rho_corr is None else _rho_to_lists(rho_corr),
        "job_seed": job_seed,
    }


@dataclass
class Report:
    """The report fields the per-row writers read."""
    rows: list = field(default_factory=list)
    bounds_rows: list = field(default_factory=list)
    texts: list = field(default_factory=list)   # (file name, text)


def bounds_rows(cfg):
    """The rows of bounds.csv: one per nbar of the bounds grid and the
    config's own, at the config's memory efficiency."""
    eta = cfg.memory.eta0
    return [{
        "nbar": nbar,
        "eta": eta,
        "bound_nphoton_1": security.classical_bound_nphoton(1),
        "bound_poisson": security.classical_bound_poisson(nbar),
        "bound_efficiency": security.classical_bound_with_efficiency(
            security.BenchmarkInput(nbar, eta)),
        "shor_preskill_threshold": security.SHOR_PRESKILL_THRESHOLD,
    } for nbar in sorted(set(config.BOUNDS_NBAR_GRID) | {cfg.source.nbar})]


def axes(cfg):
    """The (states, times, angles) of a job scenario: its jobs, in run order,
    are itertools.product(*axes(cfg))."""
    return (cfg.input_states, *config._SCENARIOS[cfg.scenario][1](cfg))


def run(cfg):
    """pipeline.run for the three job scenarios, one job at a time."""
    report = Report()
    rng = np.random.default_rng(cfg.seed)
    for state, t_us, theta in itertools.product(*axes(cfg)):
        report.rows.append(simulate_point(state, cfg, t_us, theta, cfg.seed, rng))
    return report


# --- per-row result writers --------------------------------------------------

def table_rows(table):
    """The rows of a pipeline.ResultTable, one dict per job with the Python
    values of its columns: the reference for the rows the package parses
    back from its own results.jsonl text."""
    def matrices(rho):
        return [{"real": re, "imag": im} for re, im in zip(rho.real.tolist(), rho.imag.tolist())]

    n = len(table.states)
    snr = [None] * n if table.snr is None else table.snr.tolist()
    columns = zip(table.states, table.times, table.angle_deg.tolist(), table.f_raw.tolist(),
                  table.f_corr.tolist(), table.corrected.tolist(),
                  table.bound_poisson.tolist(),
                  table.bound_efficiency.tolist(), table.secure.tolist(),
                  table.survival.tolist(), snr, table.stokes.tolist(),
                  matrices(table.rho_raw), matrices(table.rho_corr))
    return [{
        "scenario": table.scenario,
        "state": state,
        "angle_deg": angle,
        "time_us": t_us,
        "fidelity_raw": f,
        "fidelity_corrected": f_corr if ok else None,
        "bound_poisson": poisson,
        "bound_efficiency": efficiency,
        "pass_shor_preskill": secure,
        "survival": surv,
        "snr": snr_j,
        "stokes_raw": stokes,
        "rho_raw": rho,
        "rho_corrected": rho_corr if ok else None,
        "job_seed": table.seed,
    } for (state, t_us, angle, f, f_corr, ok, poisson, efficiency, secure, surv, snr_j, stokes,
           rho, rho_corr) in columns]


def _reference(report):
    """An oracle report as it is, or a pipeline report as one: the rows of
    its table (see table_rows) and its texts."""
    if isinstance(report, Report):
        return report
    return Report(rows=[] if report.table is None else table_rows(report.table),
                  texts=report.texts)


def _csv_text(rows, columns):
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(columns), lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: row[k] for k in columns})
    return buf.getvalue()


def emit(report, out_dir, formats=("csv", "json-lines", "pixmap")):
    """text.emit with one json.dumps and one csv row per result row; reads
    the ``rows``, ``bounds_rows`` and ``texts`` of any report (see
    _reference)."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []

    def _write(name, text):
        path = out / name
        path.write_text(text)
        written.append(path)

    report = _reference(report)
    rows = report.rows
    if rows:
        if "csv" in formats:
            _write("results.csv", _csv_text(rows, CSV_COLUMNS))
        if "json-lines" in formats:
            _write("results.jsonl", "".join(json.dumps(row, sort_keys=True) + "\n" for row in rows))
    if report.bounds_rows and "csv" in formats:
        cols = tuple(report.bounds_rows[0].keys())
        _write("bounds.csv", _csv_text(report.bounds_rows, cols))
    keys = ("rho_raw", "rho_corrected", "fidelity_raw", "fidelity_corrected")
    density = {row["state"]: {k: row[k] for k in keys}
               for row in rows if row["scenario"] == "store_tomography"}
    if density and "json-lines" in formats:
        _write("density_matrices.json", json.dumps(density, sort_keys=True, indent=2) + "\n")
    if "pixmap" in formats:
        for name, text in report.texts:
            _write(name, text)
    return written


def summary(rows):
    """The stdout table of cli.main, one print per row."""
    buf = io.StringIO()
    for row in rows:
        f_corr = row["fidelity_corrected"]
        print(
            f"{row['state']:>10s}  angle={row['angle_deg']:6.1f} deg  "
            f"t={row['time_us']:5.2f} us  F_raw={row['fidelity_raw']:.4f}  "
            f"F_corr={'  none' if f_corr is None else f'{f_corr:.4f}'}  "
            f"bound={row['bound_efficiency']:.4f}  "
            f"secure={'yes' if row['pass_shor_preskill'] else 'no'}",
            file=buf,
        )
    return buf.getvalue()


def main(argv):
    """cli.main with the per-row writers: emit and summary above, and
    bounds.csv from bounds_rows."""
    args = cli._parser().parse_args(argv)
    cfg = cli.load_config(args.config, args.scenario, args.seed)
    if cfg.scenario == "bounds_table":
        report = Report(bounds_rows=bounds_rows(cfg))
    else:
        report = _reference(pipeline.run(cfg))
    for path in emit(report, args.out):
        print(f"wrote {path}")
    print(summary(report.rows), end="")
    return 0


# --- per-pixel field-map renderers -------------------------------------------

def render_pgm(intensity: np.ndarray, maxval: int = 65535) -> str:
    """ASCII PGM (P2) with intensity scaled to the full gray range."""
    peak = float(intensity.max())
    scaled = np.zeros_like(intensity) if peak == 0.0 else intensity / peak
    pixels = np.rint(scaled * maxval).astype(int)
    lines = ["P2", f"{intensity.shape[1]} {intensity.shape[0]}", str(maxval)]
    lines += [" ".join(str(v) for v in row) for row in pixels]
    return "\n".join(lines) + "\n"


def _hsv_to_rgb(h: np.ndarray, s: np.ndarray, v: np.ndarray) -> np.ndarray:
    i = np.floor(h * 6.0).astype(int) % 6
    f = h * 6.0 - np.floor(h * 6.0)
    p = v * (1.0 - s)
    q = v * (1.0 - s * f)
    t = v * (1.0 - s + s * f)   # v(1 - s(1 - f)), exactly v * f at s = 1
    r = np.choose(i, [v, q, p, p, t, v])
    g = np.choose(i, [t, v, v, q, p, p])
    b = np.choose(i, [p, p, t, v, v, q])
    return np.stack([r, g, b], axis=-1)


def render_ppm(hue: np.ndarray, intensity: np.ndarray, maxval: int = 255) -> str:
    """ASCII PPM (P3): hue encodes polarization azimuth, value the intensity."""
    peak = float(intensity.max())
    value = np.zeros_like(intensity) if peak == 0.0 else intensity / peak
    rgb = _hsv_to_rgb(np.mod(hue, 1.0), np.ones_like(hue), value)
    pixels = np.rint(rgb * maxval).astype(int)
    lines = ["P3", f"{hue.shape[1]} {hue.shape[0]}", str(maxval)]
    lines += [" ".join(str(v) for v in row.reshape(-1)) for row in pixels]
    return "\n".join(lines) + "\n"


def render_grid_csv(values: np.ndarray) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for row in values:
        writer.writerow([repr(float(v)) for v in row])
    return buf.getvalue()
