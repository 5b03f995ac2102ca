"""The speed trail: every BENCH_*.json at the repository root, as
scripts/bench_trail.py writes it, parsed and checked for its keys and
formats.  Nothing is timed here."""

import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TRAIL = sorted(ROOT.glob("BENCH_*.json"))
WORKLOADS = {"rotation_sweep", "field_maps", "offline_tomography"}
METRICS = {"setup_s": "s", "wall_s": "s", "items_per_s": "1/s", "peak_rss_mb": "MB"}
GIT_OBJECT = re.compile(r"[0-9a-f]{40}")


def test_trail_exists():
    assert TRAIL


@pytest.mark.parametrize("path", TRAIL, ids=[p.name for p in TRAIL])
def test_trail_entry(path):
    entry = json.loads(path.read_text())
    assert set(entry) == {"label", "git_sha", "src_tree", "bench_tree", "sessions"}
    assert path.name == f"BENCH_{entry['label']}.json"
    assert entry["git_sha"] is None or GIT_OBJECT.fullmatch(entry["git_sha"])
    assert GIT_OBJECT.fullmatch(entry["src_tree"]) and GIT_OBJECT.fullmatch(entry["bench_tree"])
    assert entry["sessions"]
    for session in entry["sessions"]:
        assert set(session) == {"compared_with", "protocol", "machine", "workloads"}
        assert (ROOT / f"BENCH_{session['compared_with']}.json").is_file()
        assert isinstance(session["protocol"], str) and session["protocol"]
        machine = session["machine"]
        assert set(machine) == {"cpu_model", "nproc", "python", "numpy"}
        assert isinstance(machine["nproc"], int) and machine["nproc"] >= 1
        assert set(session["workloads"]) <= WORKLOADS and session["workloads"]
        for workload in session["workloads"].values():
            assert set(workload) == {"seed", "seconds", "digest", "runs"}
            assert isinstance(workload["seed"], int) and workload["seconds"] > 0
            assert re.fullmatch(r"sha256:[0-9a-f]{64}", workload["digest"])
            assert workload["runs"]
            for run in workload["runs"]:
                assert set(run) == {"correct", "attempted", "failed", "metrics"}
                assert run["correct"] is True and run["failed"] == 0 and run["attempted"] > 0
                assert {name: m["unit"] for name, m in run["metrics"].items()} == METRICS
                assert all(m["value"] > 0 for m in run["metrics"].values())


def _shape(session):
    return (session["protocol"], session["machine"],
            {w: (v["seed"], v["seconds"], len(v["runs"])) for w, v in session["workloads"].items()})


def test_sessions_come_in_pairs():
    """A session paired with another revision has its counterpart in that
    revision's file: the same workloads, seeds, --seconds and number of
    runs, under one protocol on one machine."""
    entries = {entry["label"]: entry for entry in map(json.loads, map(Path.read_text, TRAIL))}
    for label, entry in entries.items():
        for session in entry["sessions"]:
            partners = [s for s in entries[session["compared_with"]]["sessions"]
                        if s["compared_with"] == label]
            assert _shape(session) in map(_shape, partners)
