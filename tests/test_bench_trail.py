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
END_TO_END = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
METRICS = {metric["name"]: metric["unit"] for metric in END_TO_END}
GIT_OBJECT = re.compile(r"[0-9a-f]{40}")
TREES = ("src_tree", "bench_tree")

TRAIL_SCRIPT = runpy.run_path(str(ROOT / "scripts" / "bench_trail.py"))
quartiles, pairs_won = TRAIL_SCRIPT["quartiles"], TRAIL_SCRIPT["pairs_won"]


def test_trail_exists():
    assert TRAIL


@pytest.mark.parametrize("path", TRAIL, ids=[p.name for p in TRAIL])
def test_trail_entry(path):
    entry = json.loads(path.read_text())
    assert set(entry) == {"label", "compared_with", "protocol", "machine", "parent", "change",
                          "workloads"}
    assert path.name == f"BENCH_{entry['label']}.json"
    assert isinstance(entry["protocol"], str) and entry["protocol"]
    machine = entry["machine"]
    assert set(machine) == {"cpu_model", "nproc", "python", "numpy"}
    assert isinstance(machine["nproc"], int) and machine["nproc"] >= 1
    for side in ("parent", "change"):
        assert set(entry[side]) == {"commit", *TREES}
        assert entry[side]["commit"] is None or GIT_OBJECT.fullmatch(entry[side]["commit"])
        assert all(GIT_OBJECT.fullmatch(entry[side][tree]) for tree in TREES)
    assert set(entry["workloads"]) <= WORKLOADS and entry["workloads"]
    for workload in entry["workloads"].values():
        assert set(workload) == {"seed", "seconds", "parent", "change"}
        assert isinstance(workload["seed"], int) and workload["seconds"] > 0
        assert len(workload["parent"]["runs"]) == len(workload["change"]["runs"]) > 0
        for side in (workload["parent"], workload["change"]):
            assert set(side) == {"digest", "runs"}
            assert re.fullmatch(r"sha256:[0-9a-f]{64}", side["digest"])
            for run in side["runs"]:
                assert set(run) == {"correct", "attempted", "failed", "metrics"}
                assert run["correct"] is True and run["failed"] == 0 and run["attempted"] > 0
                assert {name: m["unit"] for name, m in run["metrics"].items()} == METRICS
                assert all(m["value"] > 0 for m in run["metrics"].values())


@pytest.mark.parametrize("path", TRAIL, ids=[p.name for p in TRAIL])
def test_trail_is_a_chain(path):
    """A file's parent trees are the change trees of the file of the label
    it is compared with, where that file exists."""
    entry = json.loads(path.read_text())
    before = ROOT / f"BENCH_{entry['compared_with']}.json"
    if before.exists():
        change = json.loads(before.read_text())["change"]
        assert [entry["parent"][tree] for tree in TREES] == [change[tree] for tree in TREES]


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
    """The setup_s quartiles of the change runs of rotation_sweep in
    BENCH_30.json (label 30, compared with 29), as CHANGES.md quotes them;
    the min-max range differs from them."""
    runs = json.loads((ROOT / "BENCH_30.json").read_text())["workloads"]["rotation_sweep"]
    values = [run["metrics"]["setup_s"]["value"] for run in runs["change"]["runs"]]
    assert [round(q, 3) for q in quartiles(values)] == [0.325, 0.405]
    assert [round(min(values), 3), round(max(values), 3)] == [0.312, 0.444]


@pytest.mark.parametrize("parent, change, better, want", [
    ([1.0, 2.0, 3.0], [0.5, 2.0, 4.0], "lower", 1),
    ([1.0, 2.0, 3.0], [0.5, 2.0, 4.0], "higher", 1),
    ([1.0, 1.0], [1.0, 1.0], "lower", 0),
], ids=["lower", "higher", "ties"])
def test_pairs_won_counts_no_tie(parent, change, better, want):
    assert pairs_won(parent, change, better) == want


@pytest.mark.parametrize("path, workload, metric, want", [
    ("BENCH_31.json", "rotation_sweep", "items_per_s", 10),
    ("BENCH_29.json", "rotation_sweep", "peak_rss_mb", 0),
    ("BENCH_30.json", "offline_tomography", "peak_rss_mb", 5),   # and one tie
])
def test_pairs_won_on_recorded_files(path, workload, metric, want):
    """The pair counts of recorded comparisons: the rotation_sweep speed-up
    of label 31 won every pair, and 28 -> 29 lost every peak_rss_mb pair."""
    runs = json.loads((ROOT / path).read_text())["workloads"][workload]
    better = next(m["better"] for m in END_TO_END if m["name"] == metric)
    parent, change = ([run["metrics"][metric]["value"] for run in runs[side]["runs"]]
                      for side in ("parent", "change"))
    assert pairs_won(parent, change, better) == want


@pytest.mark.parametrize("closing", [{"correct": False, "failed": 0},
                                     {"correct": True, "failed": 1}], ids=["incorrect", "failed"])
def test_a_failed_run_writes_no_file(tmp_path, monkeypatch, closing):
    """The script ends at the first run that did not pass, naming its
    workload, side and pair, and writes nothing."""
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    calls = []

    def run(rev, workload, work):
        calls.append(rev)
        result = {"attempted": 3, "correct": True, "failed": 0, "metrics": {}}
        return {"machine": {}, "digest": "sha256:" + "0" * 64,
                "result": {**result, **closing} if len(calls) == 4 else result}

    main = TRAIL_SCRIPT["main"]
    monkeypatch.setitem(main.__globals__, "ROOT", tmp_path)
    monkeypatch.setitem(main.__globals__, "_objects", lambda rev: {"commit": None})
    monkeypatch.setitem(main.__globals__, "_run", run)
    with pytest.raises(SystemExit, match=r"^rotation_sweep pair 1 parent: "):
        main(["--parent", "p", "--parent-label", "1", "--change", "c", "--change-label", "2",
              "--work", str(tmp_path / "work")])
    assert calls == ["p", "c", "c", "p"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["BENCHMARK.json"]
