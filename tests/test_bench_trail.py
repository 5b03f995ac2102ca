"""The speed trail: every BENCH_*.json at the repository root, as
scripts/bench_trail.py writes it, parsed and checked for its keys and
formats.  Nothing is timed here."""

import json
import re
import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TRAIL = sorted(ROOT.glob("BENCH_*.json"))
WORKLOADS = {"rotation_sweep", "field_maps", "offline_tomography"}
METRICS = {"setup_s": "s", "wall_s": "s", "items_per_s": "1/s", "peak_rss_mb": "MB"}
GIT_OBJECT = re.compile(r"[0-9a-f]{40}")

quartiles = runpy.run_path(str(ROOT / "scripts" / "bench_trail.py"))["quartiles"]


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


@pytest.mark.parametrize("values, want", [
    ([5.0], (5.0, 5.0)),
    ([4.0, 1.0, 3.0, 2.0], (1.25, 3.75)),
    ([float(v) for v in range(10, 0, -1)], (2.75, 8.25)),
], ids=["one", "four", "ten"])
def test_quartiles_are_exclusive_and_ignore_order(values, want):
    """The first and third quartiles at positions (n + 1) / 4 and
    3 (n + 1) / 4 of the sorted runs, interpolated linearly; one run is
    both."""
    assert quartiles(values) == pytest.approx(want)


def test_quartiles_of_a_recorded_session():
    """The setup_s quartiles of the rotation_sweep runs of label 30 in
    BENCH_30.json, paired with label 29, as CHANGES.md quotes them; the
    min-max range differs from them."""
    session = next(s for s in json.loads((ROOT / "BENCH_30.json").read_text())["sessions"]
                   if s["compared_with"] == "29")
    values = [run["metrics"]["setup_s"]["value"]
              for run in session["workloads"]["rotation_sweep"]["runs"]]
    assert [round(q, 3) for q in quartiles(values)] == [0.325, 0.405]
    assert [round(min(values), 3), round(max(values), 3)] == [0.312, 0.444]
