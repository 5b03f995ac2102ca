"""The three benchmark workloads and the checks on their outputs.

Each workload prepares its inputs from the seed (untimed), runs one timed
pass through the package's public entry points, and hands back the bytes
the pass produced so the runner can check them and compare passes.

- ``rotation_sweep``: ``cli.main`` on the fidelity_vs_rotation preset with
  a 600-angle grid (0.0 to 59.9 degrees in 0.1-degree steps) over its 12
  states: 7 200 jobs through the per-job pipeline and 6.6 MB of CSV and
  JSON lines.  Every job shares one (nbar, survival) pair.
- ``field_maps``: ``cli.main`` on the field_maps preset: 6 hybrid states on
  the 256x256 grid written as 18 ASCII pixmap and CSV files (12.5 MB).  No
  job pipeline runs; nearly all time is text rendering.
- ``offline_tomography``: reads 48 count-record CSV files made at set-up
  from a sampled fidelity_vs_time run with rail imbalance and rail phase
  error, then reconstructs raw and background-corrected states, scores
  them and bootstraps both with 200 resamples.  It reads instead of
  writing, and its time is in tomography and hilbert.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import shutil
import statistics
from pathlib import Path

ROTATION_ANGLES_DEG = tuple(i / 10 for i in range(600))
BOOTSTRAP_RESAMPLES = 200
OFFLINE_IMPERFECTION = 0.05   # rail_imbalance and rail_phase_error

# measured regime of the presets: raw fidelity of rotation-invariant states
RAW_FIDELITY = 0.967
RAW_FIDELITY_MEAN_TOL = 0.003   # ~10 standard errors of a 4 200-row mean
RAW_FIDELITY_ROW_TOL = 0.012    # ~9 sigma of the 150 000-trial shot noise
MALUS_ROW_TOL = 0.03            # shot noise at mid angles plus detector nonlinearity
# bootstrap mean vs point fidelity, in bootstrap standard deviations: the
# projection onto the Bloch ball biases near-pure corrected states by up
# to ~1 sigma
BOOTSTRAP_MEAN_SIGMAS = 2.0
BOOTSTRAP_MEAN_ATOL = 0.002


class _CliWorkload:
    """A scenario pass: one in-process ``cli.main`` call on a config file."""

    scenario = ""

    def __init__(self, package, work: Path, seed: int) -> None:
        self.pkg = package
        self.cli = package.cli
        self.seed = seed
        self.config_path = work / "config.json"
        self.out_dir = work / "out"

    def config(self) -> dict:
        cfg = self.cli.config_to_dict(self.cli.default_config(self.scenario))
        cfg["seed"] = self.seed
        return cfg

    def prepare(self) -> None:
        cfg = self.config()
        self.config_path.write_text(json.dumps(cfg, sort_keys=True))
        self.states = tuple(cfg["input_states"])

    def run_pass(self):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = self.cli.main(["--config", str(self.config_path), "--out", str(self.out_dir)])
        return code, stdout.getvalue(), stderr.getvalue()

    def outputs(self, result) -> dict[str, bytes]:
        code, stdout, stderr = result
        if code != 0:
            raise RuntimeError(f"cli.main exited {code}: {stderr.strip()}")
        files = {p.name: p.read_bytes() for p in sorted(self.out_dir.iterdir())}
        shutil.rmtree(self.out_dir)   # the next pass writes into a fresh directory
        return {"stdout": stdout.encode(), **files}


class RotationSweep(_CliWorkload):
    scenario = "fidelity_vs_rotation"

    def config(self) -> dict:
        cfg = super().config()
        cfg["rotation_angles"] = [math.radians(d) for d in ROTATION_ANGLES_DEG]
        return cfg

    @property
    def items(self) -> int:
        return len(self.states) * len(ROTATION_ANGLES_DEG)

    def check(self, outputs: dict[str, bytes]) -> list[str]:
        rows = list(csv.DictReader(io.StringIO(outputs["results.csv"].decode())))
        problems = []
        if len(rows) != self.items:
            problems.append(f"results.csv has {len(rows)} rows, expected {self.items}")
        jsonl = outputs["results.jsonl"].decode().splitlines()
        if len(jsonl) != self.items:
            problems.append(f"results.jsonl has {len(jsonl)} lines, expected {self.items}")
        printed = outputs["stdout"].decode().splitlines()
        if len(printed) != self.items + 2:
            problems.append(f"stdout has {len(printed)} lines, expected {self.items + 2}")
        linear = {"H", "V", "D", "A"}
        flat = [float(r["fidelity_raw"]) for r in rows if r["state"] not in linear]
        if not flat:
            return problems + ["no rotation-invariant rows"]
        mean = statistics.fmean(flat)
        if abs(mean - RAW_FIDELITY) > RAW_FIDELITY_MEAN_TOL:
            problems.append(f"mean raw fidelity {mean:.5f} of invariant states is not {RAW_FIDELITY}")
        worst = max(abs(f - mean) for f in flat)
        if worst > RAW_FIDELITY_ROW_TOL:
            problems.append(f"raw fidelity of invariant states varies by {worst:.4f} over angles")
        # Malus law with the measured visibility v: F = (1 - v)/2 + v cos^2(theta)
        v = 2.0 * mean - 1.0
        worst_malus = max(
            (abs(float(r["fidelity_raw"])
                 - ((1.0 - v) / 2.0 + v * math.cos(math.radians(float(r["angle_deg"]))) ** 2))
             for r in rows if r["state"] in linear),
            default=math.inf,
        )
        if worst_malus > MALUS_ROW_TOL:
            problems.append(f"linear states deviate from cos^2 by {worst_malus:.4f}")
        return problems


class FieldMaps(_CliWorkload):
    scenario = "field_maps"

    @property
    def items(self) -> int:
        return 3 * len(self.states)

    def check(self, outputs: dict[str, bytes]) -> list[str]:
        grid = self.pkg.fields.Grid()
        problems = []
        files = {k for k in outputs if k != "stdout"}
        expected = {f"{s}_{suffix}" for s in self.states
                    for suffix in ("intensity.pgm", "polarization.ppm", "intensity.csv")}
        if files != expected:
            problems.append(f"output files {sorted(files ^ expected)} differ from the expected set")
        for name in sorted(files & expected):
            problems += _check_pixmap(name, outputs[name].decode(), grid.nx, grid.ny)
        return problems


def _check_pixmap(name: str, text: str, nx: int, ny: int) -> list[str]:
    lines = text.split("\n")
    if lines[-1] != "":
        return [f"{name}: does not end with a newline"]
    lines.pop()
    if name.endswith(".csv"):
        header, maxval, per_px, body = None, None, 1, lines
    else:
        magic, maxval, per_px = ("P2", 65535, 1) if name.endswith(".pgm") else ("P3", 255, 3)
        header, body = lines[:3], lines[3:]
        if header != [magic, f"{nx} {ny}", str(maxval)]:
            return [f"{name}: header {header} is not [{magic!r}, '{nx} {ny}', '{maxval}']"]
    if len(body) != ny:
        return [f"{name}: {len(body)} pixel rows, expected {ny}"]
    sep = "," if header is None else " "
    for i, line in enumerate(body):
        fields = line.split(sep)
        if len(fields) != nx * per_px:
            return [f"{name}: row {i} has {len(fields)} values, expected {nx * per_px}"]
    if maxval is not None:
        values = [int(v) for line in body for v in line.split()]
        if min(values) < 0 or max(values) > maxval:
            return [f"{name}: pixel values outside [0, {maxval}]"]
    return []


class OfflineTomography:
    """Tomography on count records read from files, with bootstrap errors."""

    def __init__(self, package, work: Path, seed: int) -> None:
        self.pkg = package
        self.seed = seed
        self.config_path = work / "config.json"
        self.records_dir = work / "records"

    def prepare(self) -> None:
        cli = self.pkg.cli
        raw = cli.config_to_dict(cli.default_config("fidelity_vs_time"))
        raw["seed"] = self.seed
        raw["memory"]["rail_imbalance"] = OFFLINE_IMPERFECTION
        raw["memory"]["rail_phase_error"] = OFFLINE_IMPERFECTION
        self.config_path.write_text(json.dumps(raw, sort_keys=True))
        cfg = cli.load_config(self.config_path, None, None)
        self.records_dir.mkdir(parents=True, exist_ok=True)
        self.inputs = []   # (path, target state, bootstrap seed)
        jobs = [(s, t) for s in cfg.input_states for t in cfg.storage_times]
        for index, (state, t_us) in enumerate(jobs):
            mix = cli.propagate(state, cfg, t_us, 0.0)
            records = cli.detection_records(mix, cfg, cfg.seed ^ index)
            path = self.records_dir / f"{index:02d}_{state}_{t_us:g}us.csv"
            with open(path, "w", newline="") as handle:
                out = csv.writer(handle, lineterminator="\n")
                out.writerow(cli.COUNT_RECORD_COLUMNS)
                for r in records:
                    out.writerow((r.projector_id, r.clicks, r.trials, repr(r.bg_clicks_expected)))
            self.inputs.append((path, mix.target, cfg.seed ^ index))
        self.items = len(self.inputs)

    def run_pass(self):
        cli, tomography = self.pkg.cli, self.pkg.tomography
        rows = []
        for path, target, boot_seed in self.inputs:
            records = cli.read_count_records(path)
            raw = tomography.tomograph(records, subtract_bg=False)
            corrected = tomography.tomograph(records, subtract_bg=True)
            rows.append((
                path.name,
                raw.fidelity_vs(target),
                corrected.fidelity_vs(target),
                *tomography.bootstrap_fidelity(records, target, BOOTSTRAP_RESAMPLES,
                                               boot_seed, subtract_bg=False),
                *tomography.bootstrap_fidelity(records, target, BOOTSTRAP_RESAMPLES,
                                               boot_seed, subtract_bg=True),
            ))
        return rows

    def outputs(self, rows) -> dict[str, bytes]:
        lines = ["file,f_raw,f_corrected,boot_raw_mean,boot_raw_std,"
                 "boot_corrected_mean,boot_corrected_std"]
        lines += [",".join([name] + [repr(v) for v in values]) for name, *values in rows]
        return {"fidelities.csv": ("\n".join(lines) + "\n").encode()}

    def check(self, outputs: dict[str, bytes]) -> list[str]:
        rows = list(csv.DictReader(io.StringIO(outputs["fidelities.csv"].decode())))
        problems = []
        if len(rows) != self.items:
            problems.append(f"{len(rows)} reconstructions, expected {self.items}")
        for r in rows:
            for kind in ("raw", "corrected"):
                f = float(r[f"f_{kind}"])
                mean = float(r[f"boot_{kind}_mean"])
                std = float(r[f"boot_{kind}_std"])
                if not (0.0 <= f <= 1.0 and
                        abs(mean - f) <= BOOTSTRAP_MEAN_SIGMAS * std + BOOTSTRAP_MEAN_ATOL):
                    problems.append(f"{r['file']}: {kind} bootstrap mean {mean:.4f} "
                                    f"+- {std:.4f} is not near the point fidelity {f:.4f}")
        return problems


WORKLOADS = {
    "rotation_sweep": RotationSweep,
    "field_maps": FieldMaps,
    "offline_tomography": OfflineTomography,
}
