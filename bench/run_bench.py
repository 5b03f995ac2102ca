"""vortexmem benchmark: one workload per run, timed end to end or traced.

Run from the repository root:

    python3 bench/run_bench.py --workload rotation_sweep --seed 12345 \
        --seconds 40 --trace 0

Workloads: rotation_sweep, field_maps, offline_tomography (see
``workloads.py``).  One process, one closed-loop client: each pass starts
when the previous one has finished.  The package is imported from
``src/`` of the current directory; if it is not there the run exits with
code 2 before measuring anything.

``--trace 0`` reports the end-to-end metrics: set-up time (fresh
interpreters importing vortexmem and building the config), seconds per
pass, items per second, and peak resident memory.  ``--trace 1`` runs
untraced passes, then passes with every public function of the package
wrapped in spans (``spans.py``), and reports per-layer self times and
counters plus the tracing overhead.

Times are reported in reference seconds.  The speed of a shared machine
drifts by tens of percent over minutes, which swamps the differences a
benchmark has to resolve, so every timed pass and set-up sample is
bracketed by a fixed calibration computation and scaled by
``CAL_REFERENCE_S / mean(calibration before, calibration after)``.  The
raw wall-clock medians are printed alongside.

Every pass is checked: its output bytes must equal those of the first
pass, and the first pass must satisfy the workload's physics invariants.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the machine, the output digest and each metric with its unit.
Scratch files go to ``.bench_work/`` in the current directory.
"""

from __future__ import annotations

import os

# pin BLAS/OpenMP threads before numpy is first imported
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

WORK = Path(".bench_work")
SETUP_PROBES = 11
MIN_PASSES = 3          # timed passes per phase, even when --seconds is short
TAIL_MIN_BEYOND = 10    # report the highest percentile with this many samples above it
TAIL_MIN_SAMPLES = 20   # below this the only such percentile is under the median

# duration of calibration() on the machine the baseline was measured on
# (2-vCPU Intel Xeon VM, Python 3.11.7, numpy 2.4.6), where the per-run
# medians ranged from 0.022 s to 0.037 s as the machine's speed drifted
CAL_REFERENCE_S = 0.025

# run in a fresh interpreter: the time to import vortexmem and build the config
SETUP_PROBE = """
import sys, time
from pathlib import Path
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import vortexmem.cli
vortexmem.cli.load_config(Path(sys.argv[2]), None, None)
print(repr(time.perf_counter() - t0))
"""


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("rotation_sweep", "field_maps", "offline_tomography"))
    parser.add_argument("--seed", type=int, default=12345)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser


def _import_package(src: Path):
    """Import vortexmem from ``src``; None if it is not there."""
    sys.path.insert(0, str(src))
    try:
        import vortexmem
    except ImportError as exc:
        print(f"cannot import vortexmem from {src}: {exc}", file=sys.stderr)
        return None
    if not Path(vortexmem.__file__).resolve().is_relative_to(src.resolve()):
        print(f"vortexmem was imported from {vortexmem.__file__}, not {src}", file=sys.stderr)
        return None
    return vortexmem


def _git_sha(root: Path) -> str:
    """Commit of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_info(root: Path, seed: int) -> dict:
    import numpy
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {var: os.environ[var] for var in THREAD_VARS},
        "git_sha": _git_sha(root),
        "seed": seed,
    }


def calibration() -> float:
    """Seconds for a fixed mix of pure-Python and small-array numpy work,
    the two kinds of work the package's passes consist of."""
    import numpy as np
    start = time.perf_counter()
    acc = 0.0
    table = {}
    chars = 0
    m = np.eye(2, dtype=complex)
    for i in range(20_000):
        x = complex(i % 7, i % 5)
        table[i % 64] = (x, abs(x))
        acc += table[i % 64][1]
        chars += len(f"{acc:.6f}")
        if i % 8 == 0:
            m = (m + np.array([[x, 0], [0, x]]) * 1e-9) / 1.0000001
    return time.perf_counter() - start


class Clock:
    """Converts wall seconds to reference seconds using the calibration
    runs just before and just after the timed work."""

    def __init__(self) -> None:
        self.before = calibration()
        self.calibrations = [self.before]

    def reference(self, seconds: float) -> float:
        after = calibration()
        self.calibrations.append(after)
        scaled = seconds * CAL_REFERENCE_S / ((self.before + after) / 2.0)
        self.before = after
        return scaled


class SetupProbe:
    """Set-up time: import vortexmem and build the config in a fresh
    interpreter.  Samples are spread evenly over the measuring window."""

    def __init__(self, src: Path, config_path: Path, clock: Clock, start: float,
                 window: float) -> None:
        self.argv = [sys.executable, "-c", SETUP_PROBE, str(src), str(config_path)]
        self.clock = clock
        self.start = start
        self.window = window
        self.samples: list[float] = []       # wall seconds
        self.reference: list[float] = []     # reference seconds

    def sample(self) -> None:
        done = subprocess.run(self.argv, capture_output=True, text=True, timeout=120, check=True)
        seconds = float(done.stdout.strip().splitlines()[-1])
        self.samples.append(seconds)
        self.reference.append(self.clock.reference(seconds))

    def catch_up(self) -> None:
        elapsed = time.perf_counter() - self.start
        while len(self.samples) < min(SETUP_PROBES, 1 + SETUP_PROBES * elapsed / self.window):
            self.sample()

    def finish(self) -> None:
        while len(self.samples) < SETUP_PROBES:
            self.sample()


def digest(outputs: dict[str, bytes]) -> str:
    h = hashlib.sha256()
    for name in sorted(outputs):
        data = outputs[name]
        h.update(f"{name}\0{len(data)}\0".encode())
        h.update(data)
    return h.hexdigest()


class Runner:
    """Closed-loop pass runner; counts attempts and failures."""

    def __init__(self, workload, clock: Clock, probe: SetupProbe | None = None) -> None:
        self.workload = workload
        self.clock = clock
        self.probe = probe
        self.attempted = 0
        self.failed = 0
        self.reference: str | None = None

    def one_pass(self, tracer=None) -> tuple[float, float, dict | None]:
        """Run, time and check one pass; returns (wall seconds, reference
        seconds, layer totals)."""
        gc.collect()
        if tracer is not None:
            tracer.begin_pass()
        self.attempted += 1
        result, error = None, None
        start = time.perf_counter()
        try:
            if tracer is not None:
                with tracer.span("bench.pass"):
                    result = self.workload.run_pass()
            else:
                result = self.workload.run_pass()
        except Exception:
            error = traceback.format_exc()
        wall = time.perf_counter() - start
        ref = self.clock.reference(wall)
        totals = tracer.end_pass() if tracer is not None else None
        problems = [error] if error else []
        if not problems:
            try:
                outputs = self.workload.outputs(result)
                problems = self._check(outputs)
            except Exception:
                problems = [traceback.format_exc()]
        if problems:
            self.failed += 1
            for p in problems:
                print(f"pass {self.attempted} failed: {p}", file=sys.stderr)
        return wall, ref, totals

    def _check(self, outputs: dict[str, bytes]) -> list[str]:
        # the first pass is checked against the physics invariants; every
        # later pass must reproduce its bytes exactly
        d = digest(outputs)
        if self.reference is None:
            problems = self.workload.check(outputs)
            if not problems:
                self.reference = d
            return problems
        if d != self.reference:
            return [f"output digest {d} differs from the first pass {self.reference}"]
        return []

    def passes(self, until: float, tracer=None) -> tuple[list[float], list[float], list[dict]]:
        """Timed passes until the next one would end after ``until``;
        returns wall seconds, reference seconds and layer totals."""
        walls, refs, totals = [], [], []
        while len(walls) < MIN_PASSES or time.perf_counter() + statistics.median(walls) <= until:
            wall, ref, tot = self.one_pass(tracer)
            walls.append(wall)
            refs.append(ref)
            if tot is not None:
                totals.append(tot)
            if self.probe is not None:
                self.probe.catch_up()
        return walls, refs, totals


def tail(samples: list[float]) -> tuple[float, float] | None:
    """Highest percentile with TAIL_MIN_BEYOND samples above it, if any."""
    n = len(samples)
    if n < TAIL_MIN_SAMPLES:
        return None
    k = n - TAIL_MIN_BEYOND
    return 100.0 * k / n, sorted(samples)[k - 1]


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    package = _import_package(src)
    if package is None:
        return 2
    import spans
    import workloads

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload = workloads.WORKLOADS[args.workload](package, work, args.seed)
    workload.prepare()
    machine = machine_info(root, args.seed)
    print(f"machine {json.dumps(machine, sort_keys=True)}")
    print(f"workload {args.workload}: {workload.items} items per pass, seed {args.seed}, "
          f"closed loop, 1 client, trace {args.trace}")

    clock = Clock()
    start = time.perf_counter()
    probe = None if args.trace else SetupProbe(src, workload.config_path, clock, start,
                                               args.seconds)
    runner = Runner(workload, clock, probe)
    runner.one_pass()   # warm-up: fills caches and becomes the reference output
    if args.trace:
        untraced, _, _ = runner.passes(start + args.seconds / 2)
        tracer = spans.Tracer()
        with tracer.instrumented(package):
            traced, _, totals = runner.passes(start + args.seconds, tracer)
        overhead = statistics.median(traced) - statistics.median(untraced)
        metrics = spans.per_layer_metrics(totals, overhead)
        span_rows = tracer.write(work / "spans.csv")
        self_sum = statistics.median(sum(t["self_s"].values()) for t in totals)
        print(f"trace: {span_rows} spans written to {work / 'spans.csv'}; per-pass self "
              f"times sum to {self_sum:.4f} s, traced wall {statistics.median(traced):.4f} s, "
              f"untraced wall {statistics.median(untraced):.4f} s, overhead {overhead:.4f} s "
              f"(wall seconds)")
        walls = untraced
    else:
        walls, refs, _ = runner.passes(start + args.seconds)
        probe.finish()
        wall_ref = statistics.median(refs)
        print(f"setup_s: median {statistics.median(probe.samples):.4f} s wall, "
              f"{statistics.median(probe.reference):.4f} reference s, "
              f"of {len(probe.samples)} fresh interpreters")
        metrics = {
            "setup_s": (statistics.median(probe.reference), "s"),
            "wall_s": (wall_ref, "s"),
            "items_per_s": (workload.items / wall_ref, "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    tail_pass = tail(walls)
    tail_text = (f"p{tail_pass[0]:.0f} {tail_pass[1]:.4f} s" if tail_pass
                 else f"no tail percentile (needs {TAIL_MIN_SAMPLES} passes)")
    print(f"wall_s: median {statistics.median(walls):.4f} s wall, {tail_text}, "
          f"n={len(walls)} timed passes, {workload.items / statistics.median(walls):.6g} "
          f"items per wall second")
    print(f"calibration: median {statistics.median(clock.calibrations):.5f} s over "
          f"{len(clock.calibrations)} runs (reference {CAL_REFERENCE_S} s)")
    error_rate = runner.failed / runner.attempted
    print(f"error_rate: {error_rate:g} ({runner.failed}/{runner.attempted} passes)")
    print(f"digest sha256:{runner.reference or 'none (no pass was correct)'}")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    (work / "result.json").write_text(json.dumps(
        {"workload": args.workload, "machine": machine, "digest": runner.reference,
         "wall_samples_s": walls, "calibration_samples_s": clock.calibrations,
         "setup_samples_s": probe.samples if probe else [], **result},
        sort_keys=True, indent=2) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
