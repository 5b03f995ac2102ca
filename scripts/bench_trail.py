#!/usr/bin/env python3
"""Speed trail: run bench/run_bench.py on a parent and a change revision in
alternating pairs and write the comparison to BENCH_<change label>.json, at
the root of the repository.

    python3 scripts/bench_trail.py --parent 221c3a3 --parent-label 31 \\
        --change "$(git write-tree)" --change-label 32 --work /tmp/trail

A revision is anything `git archive` takes: a commit, or the tree of the
staged work (`git add -A; git write-tree`).  Every run happens in a fresh
`git archive` copy of its revision under --work, with a fresh
PYTHONPYCACHEPREFIX and PYTHONDONTWRITEBYTECODE=1, so neither a bytecode
cache nor a scratch directory carries over from one run, or from one of
its set-up probes, to the next; the copy is removed afterwards.  Every
workload gets PAIRS pairs of SECONDS-second runs; pair k runs the parent
first when k is even and the change first when it is odd.  Nothing under
bench/ is changed.

The file holds one comparison: the two labels, the protocol, the machine,
each side's git objects (the commit, null for a bare tree, and the trees of
src/ and bench/) and, per workload, the seed, --seconds and each side's
digest and closing JSON lines, run k of either side from pair k.  No other
file is written, and none rewritten: before the first run the script exits
if the file exists, or if BENCH_<parent label>.json measured other trees as
its change; a run whose closing line has correct false or failed > 0, or
another digest than its side's first run, ends it before the file is
written.  Last it prints, per workload and end-to-end metric of
BENCHMARK.json, each side's median, quartiles (their distance is the
interquartile range) and min-max range, and how many pairs the change won
(a tie counts for neither side).
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


def _objects(rev: str) -> dict:
    """The git objects of rev: its commit (None for a bare tree) and the
    trees of src/ and bench/."""
    commit = subprocess.run(["git", "rev-parse", "--verify", "-q", f"{rev}^{{commit}}"], cwd=ROOT,
                            capture_output=True, text=True).stdout.strip() or None
    return {"commit": commit, "src_tree": _git("rev-parse", f"{rev}:src"),
            "bench_tree": _git("rev-parse", f"{rev}:bench")}


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


def quartiles(values: list[float]) -> tuple[float, float]:
    """The first and third quartiles of run values, by statistics.quantiles'
    default (exclusive) method; one value is both."""
    if len(values) < 2:
        return values[0], values[0]
    first, _, third = statistics.quantiles(values, n=4)
    return first, third


def pairs_won(parent: list[float], change: list[float], better: str) -> int:
    """The pairs whose change run is better than their parent run, lower or
    higher as ``better`` says; a tie counts for neither side."""
    return sum((c > p) if better == "higher" else (c < p) for p, c in zip(parent, change))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--parent-label", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--change-label", required=True)
    parser.add_argument("--work", type=Path, required=True, help="scratch directory")
    args = parser.parse_args(argv)

    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    path = ROOT / f"BENCH_{args.change_label}.json"
    before = ROOT / f"BENCH_{args.parent_label}.json"
    revs = {"parent": args.parent, "change": args.change}
    objects = {side: _objects(rev) for side, rev in revs.items()}   # fail before timing
    if path.exists():
        sys.exit(f"{path} exists; a trail file is never rewritten")
    if before.exists():
        recorded = json.loads(before.read_text())["change"]
        if any(recorded[tree] != objects["parent"][tree] for tree in ("src_tree", "bench_tree")):
            sys.exit(f"{before} measured other src/ or bench/ trees than {args.parent}'s")
    workloads = {w: {"seed": SEED, "seconds": SECONDS, **{side: {"runs": []} for side in revs}}
                 for w in WORKLOADS}
    for workload in WORKLOADS:
        for pair in range(PAIRS):
            for side in (("parent", "change") if pair % 2 == 0 else ("change", "parent")):
                run = _run(revs[side], workload, args.work)
                result = run["result"]
                print(f"{workload} pair {pair} {side}: {json.dumps(result)}", flush=True)
                if result["correct"] is not True or result["failed"] > 0:
                    sys.exit(f"{workload} pair {pair} {side}: correct {result['correct']}, "
                             f"failed {result['failed']}; no file is written")
                record = workloads[workload][side]
                if record.setdefault("digest", run["digest"]) != run["digest"]:
                    sys.exit(f"{workload} pair {pair} {side}: digest {run['digest']}, "
                             f"not {record['digest']} as in pair 0")
                record["runs"].append(result)
    path.write_text(json.dumps({
        "label": args.change_label, "compared_with": args.parent_label, "protocol": PROTOCOL,
        "machine": {key: run["machine"][key] for key in ("cpu_model", "nproc", "python", "numpy")},
        **objects, "workloads": workloads}, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}")

    for workload, record in workloads.items():
        for metric in end_to_end:
            values = {side: [r["metrics"][metric["name"]]["value"] for r in record[side]["runs"]]
                      for side in revs}
            cells = []
            for side, vs in values.items():
                first, third = quartiles(vs)
                cells.append(f"{side} median {statistics.median(vs):.6g} "
                             f"quartiles [{first:.6g}, {third:.6g}] "
                             f"min-max [{min(vs):.6g}, {max(vs):.6g}]")
            won = pairs_won(values["parent"], values["change"], metric["better"])
            print(f"{workload} {metric['name']}: " + "; ".join(cells)
                  + f"; change won {won} of {PAIRS} pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
