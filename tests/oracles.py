"""Per-job reference implementations of the batched pipeline.

The package runs jobs, reconstructions and bootstrap resamples as arrays
over a leading job axis.  These are the one-job-at-a-time compositions it
replaced, built from the package's unchanged scalar pieces (states, optics,
memory, bounds), so the tests can require the batch to reproduce them bit
for bit.  Real arithmetic is plain Python; complex products, magnitudes and
exponentials are numpy ufuncs on one state's amplitudes, since numpy's
complex multiply, abs and exp round differently from Python's.  Counts are
scalar draws, job by job and projector by projector, from one generator per
run: the order in which the package's single array draw consumes its stream.

The field-map renderers and the result writers format whole arrays, each
distinct value once; the per-pixel renderers and the per-row writers
(json.dumps, csv.DictWriter, print) they replaced are kept at the end of
this file as the byte-exact reference.
"""

import csv
import io
import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from vortexmem import cli, memory, optics, security
from vortexmem.hilbert import (ATOL_BALL, ATOL_EIGEN, ATOL_HERMITIAN, ATOL_TRACE, TAU1,
                               TAU2, TAU3, BasisTag, NonPhysicalDensity, OutsideBall,
                               named_state)
from vortexmem.photodetection import PROJECTOR_ORDER, PROJECTOR_PAIRS, CountRecord, snr_of
from vortexmem.tomography import InsufficientCounts

_ANALYZERS = {name: named_state(name) for name in PROJECTOR_ORDER}


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
    """(components, target) of the light reaching the analyzers."""
    psi = named_state(state_name)
    if psi.basis_tag is BasisTag.POLARIZATION and cfg.encode_with_qplate:
        psi = optics.qplate_apply(psi, cfg.qplate)
    rails = optics.displacer_split(psi)
    rails = memory.store_retrieve(rails, cfg.memory, t_us)
    rec = optics.displacer_recombine(rails)
    if psi.basis_tag is BasisTag.HYBRID_POINCARE:
        conv = optics.conversion_probability(cfg.qplate) ** 2
        pol = optics.qplate_decode(optics.rotate_frame(rec.state, theta), cfg.qplate)
        comps = [(conv * (rec.throughput - rec.leak_power), pol)]
        if rec.leak_power > 0.0:
            comps.append((conv * abs(rec.leak[0]) ** 2, named_state("L")))
            comps.append((conv * abs(rec.leak[1]) ** 2, named_state("R")))
        return comps, optics.qplate_decode(psi, cfg.qplate)
    return [(rec.throughput, optics.rotate_frame(rec.state, theta))], psi


def detection_records(comps, cfg, rng):
    nbar = cfg.source.nbar
    bg = cfg.memory.bg_click
    sig = dict.fromkeys(PROJECTOR_ORDER, 0.0)
    for weight, pol in comps:
        for name, p in projection_probabilities(pol).items():
            sig[name] += weight * p
    if cfg.trials_per_projection == 0:
        scale = 1.0 / (1.0 + nbar)
        return [CountRecord(k, (bg + nbar * s) * scale * 1, 1, bg * scale * 1)
                for k, s in sig.items()]
    survival = sum(w for w, _ in comps)
    probs = {
        k: click_probability(nbar, min(1.0, survival),
                             min(1.0, s / survival) if survival > 0 else 0.0, bg)
        for k, s in sig.items()
    }
    return simulate_counts(probs, cfg.trials_per_projection, rng, bg=bg)


def _rho_to_lists(m):
    return {"real": np.real(m).tolist(), "imag": np.imag(m).tolist()}


def simulate_point(state_name, cfg, t_us, theta, job_seed, rng=None):
    """One job; its counts come from ``rng``, the run's shared generator,
    or on their own from default_rng(job_seed)."""
    comps, target = propagate(state_name, cfg, t_us, theta)
    records = detection_records(comps, cfg, job_seed if rng is None else rng)
    stokes_raw, rho_raw = tomograph(records, subtract_bg=False)
    _, rho_corr = tomograph(records, subtract_bg=True)
    f_raw = conditional_fidelity(rho_raw, target)
    survival = min(1.0, max(1e-12, sum(w for w, _ in comps)))
    nbar = cfg.source.nbar
    return {
        "scenario": cfg.scenario,
        "state": state_name,
        "angle_deg": round(math.degrees(theta), 9),
        "time_us": t_us,
        "fidelity_raw": f_raw,
        "fidelity_corrected": conditional_fidelity(rho_corr, target),
        "bound_poisson": security.classical_bound_poisson(nbar),
        "bound_efficiency": security.classical_bound_with_efficiency(
            security.BenchmarkInput(nbar, survival)),
        "pass_shor_preskill": security.shor_preskill_pass(f_raw),
        "_extras": {
            "survival": survival,
            "snr": snr_of(nbar, survival, cfg.memory.bg_click) if cfg.memory.bg_click > 0 else None,
            "stokes_raw": stokes_raw,
            "rho_raw": _rho_to_lists(rho_raw),
            "rho_corrected": _rho_to_lists(rho_corr),
            "job_seed": job_seed,
        },
    }


@dataclass
class Report:
    """The report fields the per-row writers read."""
    rows: list = field(default_factory=list)
    bounds_rows: list = field(default_factory=list)
    density: dict = field(default_factory=dict)
    pixmaps: list = field(default_factory=list)


def run(cfg):
    """cli.run for the three job scenarios, one job at a time."""
    report = Report()
    rng = np.random.default_rng(cfg.seed)
    for state, t_us, theta in cli._jobs(cfg):
        row = simulate_point(state, cfg, t_us, theta, cfg.seed, rng)
        report.rows.append(row)
        if cfg.scenario == "store_tomography":
            extras = row["_extras"]
            report.density[state] = {
                "rho_raw": extras["rho_raw"],
                "rho_corrected": extras["rho_corrected"],
                "fidelity_raw": row["fidelity_raw"],
                "fidelity_corrected": row["fidelity_corrected"],
            }
    return report


# --- per-row result writers --------------------------------------------------

def _csv_text(rows, columns):
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(columns), lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: row[k] for k in columns})
    return buf.getvalue()


def emit(report, out_dir, formats=("csv", "json-lines", "pixmap")):
    """cli.emit with one json.dumps and one csv row per result row; reads
    ``rows``, ``bounds_rows``, ``density`` and ``pixmaps`` of any report."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []

    def _write(name, text):
        path = out / name
        path.write_text(text)
        written.append(path)

    if report.rows:
        if "csv" in formats:
            _write("results.csv", _csv_text(report.rows, cli.CSV_COLUMNS))
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
    """cli.main with the per-row writers: emit and summary above."""
    args = cli._parser().parse_args(argv)
    report = cli.run(cli.load_config(args.config, args.scenario, args.seed))
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
