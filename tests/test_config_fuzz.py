"""Any JSON config runs or is refused: main returns 0, 2 or 3 and never raises,
and a job scenario that runs writes one results.jsonl line for each job of
its grid, states x storage times x angles in that order, none of them with a
corrected estimate but no raw one.  Its files and stdout are byte for byte
those of oracles.main, which writes each row with json.dumps, csv and print,
and its files those of oracles.run, which simulates one job at a time.

Configs start from a scenario preset, cut to up to 4 of its angles, of its
storage times and of its states (of every named state, for a job
scenario), and have some fields replaced.  Each of the six fields in
_PHYSICS is drawn from its valid range with odds 1/2.  Then 1 to 3 fields
or list entries are replaced: most from the field's valid range, so that
most configs reach the pipeline; the rest by arbitrary JSON values: null,
booleans, huge integers, floats out to +-1e308 and non-finite (json.loads
accepts NaN and Infinity), strings and nested lists or objects.
"""

import contextlib
import dataclasses
import io
import itertools
import json
import math
import shutil
import tempfile
from datetime import timedelta
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracles
from helpers import assert_same_text
from vortexmem import cli, config, hilbert

_JOB_SCENARIOS = ("store_tomography", "fidelity_vs_time", "fidelity_vs_rotation")
_NAMES = st.sampled_from(config.SCENARIOS + hilbert.STATE_NAMES)
_NUMBERS = st.one_of(
    st.integers(min_value=-10**30, max_value=10**30),
    st.sampled_from([0, 1, -1, 2**53, 2**53 + 1, 2**63, 10**20, 10**400]),
    st.floats(),
    st.floats(min_value=-10.0, max_value=10.0),
    st.sampled_from([1e308, -1e308, 1.7e308, 5e-324, 1e-300, 700.5, 1e200, -0.0]),
)
_SCALARS = st.one_of(st.none(), st.booleans(), st.text(max_size=4), _NAMES, _NUMBERS)
_VALUES = st.one_of(
    _NUMBERS,
    _SCALARS,
    st.recursive(_SCALARS, lambda inner: st.lists(inner, max_size=3)
                 | st.dictionaries(st.text(max_size=4), inner, max_size=2), max_leaves=6),
)


# a value from each field's valid range, or from one entry's for a list
_FIELDS = {
    "scenario": st.sampled_from(config.SCENARIOS),
    "source.nbar": st.floats(0.0, 5.0),
    "memory.eta0": st.floats(0.0, 1.0),
    "memory.tau": st.floats(0.1, 100.0),
    "memory.bg_click": st.floats(0.0, 0.99),
    "memory.rail_imbalance": st.floats(0.0, 2.0),
    "memory.rail_phase_error": st.floats(-7.0, 7.0),
    "qplate.q": st.just(0.5),
    "qplate.alpha0": st.floats(-7.0, 7.0),
    "qplate.tuning_delta": st.floats(0.0, 6.28),
    "qplate.conversion_efficiency": st.floats(0.0, 1.0),
    "trials_per_projection": st.sampled_from([0, 300, 2000]),
    "rotation_angles": st.floats(-7.0, 7.0),
    "storage_times": st.one_of(st.integers(0, 40), st.floats(0.0, 40.0)),
    "input_states": st.sampled_from(hilbert.STATE_NAMES),
    "seed": st.integers(0, 2**64),
    "encode_with_qplate": st.booleans(),
}
# the fields behind the clamps, the rail leak and the plate's phase and
# weight; each config draws each of them from its valid range with odds 1/2
_PHYSICS = ("memory.bg_click", "memory.rail_imbalance", "memory.rail_phase_error",
            "qplate.alpha0", "qplate.tuning_delta", "qplate.conversion_efficiency")


def _valid(path):
    """Values from the valid range of the place a path names."""
    if not path:
        return st.fixed_dictionaries({"scenario": _FIELDS["scenario"]})
    key = path[0]
    if len(path) == 2:
        return _FIELDS[key if isinstance(path[1], int) else f"{key}.{path[1]}"]
    if key in ("source", "memory", "qplate"):
        return st.fixed_dictionaries({name.split(".")[1]: value for name, value in _FIELDS.items()
                                      if name.startswith(key + ".")})
    if key in ("rotation_angles", "storage_times", "input_states"):
        return st.lists(_FIELDS[key], min_size=1, max_size=3)
    return _FIELDS[key]


def _paths(raw):
    """Every place a value can go: each field, each list entry and the root."""
    paths = []
    for key, value in raw.items():
        paths.append((key,))
        if isinstance(value, dict):
            paths += [(key, sub) for sub in value]
        if isinstance(value, list):
            paths += [(key, i) for i in range(len(value))]
    return paths + [()]


def _put(raw, path, value):
    if not path:
        return value
    parent = raw
    for step in path[:-1]:
        parent = parent[step]
    parent[path[-1]] = value
    return raw


@st.composite
def configs(draw):
    scenario = draw(st.sampled_from(config.SCENARIOS))
    raw = config.config_to_dict(config.default_config(scenario))
    raw["trials_per_projection"] = draw(_FIELDS["trials_per_projection"])
    if scenario in _JOB_SCENARIOS:   # polarization states reach the plate too
        raw["input_states"] = hilbert.STATE_NAMES
    for key in ("rotation_angles", "storage_times", "input_states"):   # up to 4 values each
        raw[key] = draw(st.permutations(raw[key]))[:draw(st.integers(1, 4))]
    for name in _PHYSICS:
        if draw(st.booleans()):
            section, field = name.split(".")
            raw[section][field] = draw(_FIELDS[name])
    if draw(st.sampled_from([False] * 4 + [True])):   # one in five lists a state twice
        raw["input_states"].append(raw["input_states"][0])
    for path in draw(st.lists(st.sampled_from(_paths(raw)), min_size=1, max_size=3,
                              unique=True)):
        arbitrary = draw(st.sampled_from([False] * 4 + [True]))   # one in five
        value = draw(_VALUES if arbitrary else _valid(path))
        try:
            raw = _put(raw, path, value)
        except (KeyError, IndexError, TypeError):
            pass   # an earlier replacement removed the path's container
    return raw


def test_fields_name_every_config_field():
    """_FIELDS names each field of ExperimentConfig and of its source,
    memory and qplate records, and nothing else, so that configs() can
    replace any of them."""
    names = set()
    for field in dataclasses.fields(config.ExperimentConfig):
        value = getattr(config.default_config("store_tomography"), field.name)
        names |= ({f"{field.name}.{sub.name}" for sub in dataclasses.fields(value)}
                  if dataclasses.is_dataclass(value) else {field.name})
    assert not names - set(_FIELDS), f"no strategy in _FIELDS for {sorted(names - set(_FIELDS))}"
    assert not set(_FIELDS) - names, f"no config field {sorted(set(_FIELDS) - names)}"


def _main(main, path, out):
    """The exit code of main on a config file, and the files it wrote into
    out (then removed) and its stdout, by name."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(["--config", str(path), "--out", str(out)])
    files = {p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.is_dir() else {}
    shutil.rmtree(out, ignore_errors=True)
    return code, {**files, "stdout": stdout.getvalue().encode()}


@settings(max_examples=200, deadline=timedelta(seconds=5),
          suppress_health_check=[HealthCheck.too_slow])
@given(raw=configs())
def test_main_returns_an_exit_code_for_any_json_config(raw):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(raw))
        out = Path(tmp) / "out"
        code, got = _main(cli.main, path, out)
        assert code in (0, 2, 3)
        if code != 0 or raw.get("scenario") not in _JOB_SCENARIOS:
            return
        cfg = cli.load_config(path, None, None)
        grid = [(state, t_us, round(math.degrees(theta), 9)) for state, t_us, theta in
                itertools.product(cfg.input_states, cfg.storage_times, cfg.rotation_angles)]
        rows = [json.loads(line) for line in got["results.jsonl"].decode().splitlines()]
        assert [(r["state"], r["time_us"], r["angle_deg"]) for r in rows] == grid
        # no estimate is corrected that is not also reconstructed
        assert all(r["fidelity_raw"] is not None
                   for r in rows if r["fidelity_corrected"] is not None)
        # the same out path, so that stdout's "wrote" lines agree
        want_code, want = _main(oracles.main, path, out)
        assert want_code == 0
        assert_same_text(got, want)
        per_job = oracles.run(cfg)
        want = {p.name: p.read_bytes() for p in oracles.emit(per_job, Path(tmp) / "per_job")}
        assert_same_text(got, {**want, "stdout": got["stdout"]})
        assert got["stdout"].decode().endswith(oracles.summary(per_job.rows))
