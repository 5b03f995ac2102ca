#!/usr/bin/env python3
"""Speed trail: run bench/run_bench.py on a parent and a change revision in
alternating pairs and write one BENCH_<label>.json for each, at the root of
the repository.

    python3 scripts/bench_trail.py --parent c8f2237 --parent-label 28 \\
        --change "$(git write-tree)" --change-label 29 --work /tmp/trail

A revision is anything `git archive` takes: a commit, or the tree of the
staged work (`git add -A; git write-tree`).  Every run happens in a fresh
`git archive` copy of its revision under --work, with a fresh
PYTHONPYCACHEPREFIX and PYTHONDONTWRITEBYTECODE=1, so neither a bytecode
cache nor a scratch directory carries over from one run, or from one of
its set-up probes, to the next; the copy is removed afterwards.  Every
workload gets PAIRS pairs of SECONDS-second runs; pair k runs the parent
first when k is even and the change first when it is odd.  Nothing under
bench/ is changed.

A file holds the measured code's git objects (its commit, null for a bare
tree, and the trees of src/ and bench/) and a list of sessions: the label
the runs were paired with, the protocol, the machine and, per workload,
the seed, --seconds, the output digest and the closing JSON line of every
run.  A revision measured again, as the parent of the next change, gets a
session appended to its file, and its commit filled in.
"""

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("rotation_sweep", "field_maps", "offline_tomography")
SEED = 12345
PAIRS = 10
SECONDS = 20
PROTOCOL = (f"{PAIRS} alternating parent/change pairs per workload, pair k with the parent "
            f"first when k is even; bench/run_bench.py --seed {SEED} --seconds {SECONDS} "
            f"--trace 0, each run from a fresh git archive copy with a fresh "
            f"PYTHONPYCACHEPREFIX and PYTHONDONTWRITEBYTECODE=1")


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def _entry(rev: str, label: str) -> dict:
    """The trail entry of rev: its commit (None for a bare tree), the trees
    of src/ and bench/ and the sessions its file already holds."""
    commit = subprocess.run(["git", "rev-parse", "--verify", "-q", f"{rev}^{{commit}}"], cwd=ROOT,
                            capture_output=True, text=True).stdout.strip() or None
    entry = {"label": label, "git_sha": commit, "src_tree": _git("rev-parse", f"{rev}:src"),
             "bench_tree": _git("rev-parse", f"{rev}:bench"), "sessions": []}
    path = ROOT / f"BENCH_{label}.json"
    if path.exists():   # a revision measured before, against another one
        previous = json.loads(path.read_text())
        if (previous["src_tree"], previous["bench_tree"]) != (entry["src_tree"], entry["bench_tree"]):
            sys.exit(f"{path} holds other code than {rev}")
        entry["git_sha"] = entry["git_sha"] or previous["git_sha"]
        entry["sessions"] = previous["sessions"]
    return entry


def _run(rev: str, workload: str, work: Path) -> dict:
    """One run_bench.py run in a fresh copy of rev: the machine line, the
    digest and the closing JSON line."""
    copy = work / "copy"
    shutil.rmtree(copy, ignore_errors=True)
    copy.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, capture_output=True,
                             check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(copy, filter="data")
    env = {**os.environ, "PYTHONPYCACHEPREFIX": str(copy / ".pycache"),
           "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run([sys.executable, "bench/run_bench.py", "--workload", workload,
                           "--seed", str(SEED), "--seconds", str(SECONDS),
                           "--trace", "0"], cwd=copy, env=env, capture_output=True, text=True)
    shutil.rmtree(copy)
    if done.returncode != 0:
        sys.exit(f"{workload} at {rev} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.splitlines()
    machine = json.loads(next(line for line in lines if line.startswith("machine "))[8:])
    digest = next(line for line in lines if line.startswith("digest "))[7:]
    return {"machine": machine, "digest": digest, "result": json.loads(lines[-1])}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--parent-label", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--change-label", required=True)
    parser.add_argument("--work", type=Path, required=True, help="scratch directory")
    args = parser.parse_args(argv)

    sides = {"parent": (args.parent, args.parent_label), "change": (args.change, args.change_label)}
    entries = {side: _entry(rev, label) for side, (rev, label) in sides.items()}   # fail before timing
    runs = {side: {w: [] for w in WORKLOADS} for side in sides}
    machine = None
    for workload in WORKLOADS:
        for pair in range(PAIRS):
            for side in (("parent", "change") if pair % 2 == 0 else ("change", "parent")):
                run = _run(sides[side][0], workload, args.work)
                machine = machine or run["machine"]
                runs[side][workload].append(run)
                print(f"{workload} pair {pair} {side}: {json.dumps(run['result'])}", flush=True)

    for side, (_, label) in sides.items():
        workloads = {w: {"seed": SEED, "seconds": SECONDS, "digest": rs[0]["digest"],
                         "runs": [r["result"] for r in rs]} for w, rs in runs[side].items()}
        if any(r["digest"] != workloads[w]["digest"] for w, rs in runs[side].items() for r in rs):
            sys.exit(f"{label}: the runs of one workload gave different digests")
        entries[side]["sessions"].append({
            "compared_with": sides["change" if side == "parent" else "parent"][1],
            "protocol": PROTOCOL,
            "machine": {key: machine[key] for key in ("cpu_model", "nproc", "python", "numpy")},
            "workloads": workloads,
        })
    for side, (_, label) in sides.items():
        path = ROOT / f"BENCH_{label}.json"
        path.write_text(json.dumps(entries[side], indent=2, sort_keys=True) + "\n")
        print(f"wrote {path}")

    for workload in WORKLOADS:
        for metric in ("setup_s", "wall_s", "items_per_s", "peak_rss_mb"):
            cells = []
            for side in sides:
                values = [r["result"]["metrics"][metric]["value"] for r in runs[side][workload]]
                cells.append(f"{side} median {statistics.median(values):.6g} "
                             f"[{min(values):.6g}, {max(values):.6g}]")
            print(f"{workload} {metric}: " + "; ".join(cells))
    return 0


if __name__ == "__main__":
    sys.exit(main())
