"""Field-map renderers against the per-pixel reference renderers, byte for byte."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import oracles
from helpers import assert_same_text, carrier_intensity, reference_azimuth, vector_field_map
from vortexmem import config, hilbert, pipeline, text
from vortexmem.fields import Grid, lg_amplitude
from vortexmem.hilbert import named_state

# saturation 0 (grey), a half, that of the named vector states, and 1
SATURATIONS = (0.0, 0.5, 0.9999999999999998, 1.0)


def _assert_same_renders(hue, intensity, saturation=1.0):
    assert_same_text(
        {"pgm": text.render_pgm(intensity), "ppm": text.render_ppm(hue, intensity, saturation),
         "csv": text.render_grid_csv(intensity)},
        {"pgm": oracles.render_pgm(intensity),
         "ppm": oracles.render_ppm(hue, intensity, saturation),
         "csv": oracles.render_grid_csv(intensity)})


def _assert_same_csvs(grids):
    assert_same_text(dict(enumerate(map(text.render_grid_csv, grids))),
                     dict(enumerate(map(oracles.render_grid_csv, grids))))


def _field_map(name, grid):
    """The hue, intensity and saturation field_maps renders for a named state,
    the hue from the general Jones map, not from fields' closed form."""
    c0, c1 = named_state(name)
    hue = reference_azimuth(vector_field_map((c0, c1), grid)) / math.pi
    return hue, carrier_intensity(grid), 2.0 * abs(c0) * abs(c1)


@pytest.mark.parametrize("name", hilbert.HYBRID_SPHERE_NAMES)
def test_default_grid_matches_oracle(name):
    _assert_same_renders(*_field_map(name, Grid()))


@pytest.mark.parametrize("saturation", SATURATIONS)
def test_ppm_at_each_saturation_matches_oracle(saturation):
    hue, intensity, _ = _field_map("plus_i", Grid(nx=31, ny=17))
    _assert_same_renders(hue, intensity, saturation)


def test_zero_saturation_is_grey():
    """At saturation 0 every pixel is r = g = b = the scaled intensity, whatever the hue."""
    hue, intensity, _ = _field_map("radial", Grid(nx=31, ny=17))
    rgb = np.array(text.render_ppm(hue, intensity, 0.0).split()[4:], dtype=int).reshape(-1, 3)
    value = np.rint(intensity / intensity.max() * 255).ravel()
    assert (rgb == value[:, None]).all()


def test_odd_non_square_grid_matches_oracle():
    hue, intensity, saturation = _field_map("radial", Grid(nx=31, ny=17))
    assert intensity.shape == (17, 31)
    _assert_same_renders(hue, intensity, saturation)


def test_all_zero_intensity_matches_oracle():
    zero = np.zeros((5, 7))
    _assert_same_renders(np.linspace(0.0, 2.0, 35).reshape(5, 7), zero)
    assert set(text.render_pgm(zero).split("\n")[3:-1]) == {" ".join(["0"] * 7)}


def test_csv_special_values_match_oracle():
    row = [-0.0, 0.0, 5e-324, 1e-300, 1e300, math.nan, 0.1, -2.5]
    values = np.array([row, row[::-1], row])
    _assert_same_csvs([values])
    assert text.render_grid_csv(values).split("\n")[0] == \
        "-0.0,0.0,5e-324,1e-300,1e+300,nan,0.1,-2.5"


@pytest.mark.parametrize("grids", [
    [np.array([[0.1, 0.2], [0.3, 0.1]]), np.array([[0.2, 0.1, 0.7]]), np.array([[0.3], [0.7]])],
    [np.array([[-0.5, 2.0]]), np.array([[0.5, 1.0], [3.0, 0.25]]), np.array([[-3.0, -0.25]])],
    [np.array([[math.nan, -math.inf], [-0.0, 1.0]]), np.array([[math.inf, 0.0, -1.0]]),
     np.array([[-math.nan, 0.0], [-0.0, -math.inf]])],
], ids=["shared_values", "sign_folded_across_grids", "nan_inf_signed_zero"])
def test_csv_of_several_grids_matches_oracle_grid_by_grid(grids):
    """Each grid's CSV matches the oracle's: grids whose values repeat, whose
    magnitudes occur only negated, or that hold NaN, infinities and signed
    zeros."""
    _assert_same_csvs(grids)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -0.5])
def test_invalid_intensity_raises(bad):
    intensity = np.array([[1.0, bad], [0.5, 0.2]])
    with pytest.raises(ValueError, match="intensity"):
        text.render_pgm(intensity)
    with pytest.raises(ValueError, match="intensity"):
        text.render_ppm(np.zeros((2, 2)), intensity, 1.0)


@pytest.mark.parametrize("bad", [math.nan, -math.inf])
def test_non_finite_hue_raises(bad):
    with pytest.raises(ValueError, match="hue"):
        text.render_ppm(np.array([[0.1, bad]]), np.array([[1.0, 0.5]]), 1.0)


@pytest.mark.parametrize("bad", [math.nan, -1e-300, 1.0 + 2.0**-52])
def test_saturation_outside_the_unit_interval_raises(bad):
    with pytest.raises(ValueError, match="saturation"):
        text.render_ppm(np.array([[0.1, 0.2]]), np.array([[1.0, 0.5]]), bad)


def test_csv_keeps_writing_non_finite_values():
    assert text.render_grid_csv(np.array([[math.nan, -math.inf], [-0.0, 1.0]])) == \
        "nan,-inf\n-0.0,1.0\n"


@settings(max_examples=200, deadline=None)
@given(hue=hnp.arrays(np.float64, st.integers(1, 64),
                      elements=st.floats(allow_nan=False, allow_infinity=False)))
def test_hue_minus_floor_has_the_bits_of_mod_one(hue):
    """The PPM's hue - floor(hue) and np.mod(hue, 1.0) round the same exact
    value once, and both give +0.0 at integers and at -0.0."""
    assert (hue - np.floor(hue)).tobytes() == np.mod(hue, 1.0).tobytes()


def test_ppm_at_hue_edges_matches_oracle():
    """Hue 1 and -1e-300 fold to h = 1 (sector 6), 1 - 2**-53 stays below it,
    -0.0 and integers fold to +0.0."""
    hue = np.array([[1.0, 1.0 - 2.0**-53, -1e-300, -0.0], [3.0, -3.0, 1e300, -1e300]])
    intensity = np.array([[1.0, 0.75, 0.5, 0.25], [0.2, 0.4, 0.6, 0.8]])
    assert (-1e-300 - np.floor(-1e-300)) * 6.0 == 6.0
    for saturation in SATURATIONS:
        assert_same_text({"ppm": text.render_ppm(hue, intensity, saturation)},
                         {"ppm": oracles.render_ppm(hue, intensity, saturation)})


_shapes = hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=9)
_intensity = st.floats(0.0, 1e300, allow_nan=False, allow_infinity=False)
_hue = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
_saturation = st.one_of(st.sampled_from(SATURATIONS), st.floats(0.0, 1.0))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), shape=_shapes)
def test_property_finite_non_negative_arrays_match_oracle(data, shape):
    intensity = data.draw(hnp.arrays(np.float64, shape, elements=_intensity))
    hue = data.draw(hnp.arrays(np.float64, shape, elements=_hue))
    _assert_same_renders(hue, intensity, data.draw(_saturation))


# a small pool, so that grids share values and signed magnitudes
_CSV_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 0.1, -0.1, 2.5, -2.5, 5e-324, -5e-324, math.inf, -math.inf,
                     math.nan, -math.nan]),
    st.floats())
_CSV_GRIDS = st.lists(hnp.arrays(np.float64, _shapes, elements=_CSV_VALUES), min_size=1,
                      max_size=4)


@settings(max_examples=60, deadline=None)
@given(grids=_CSV_GRIDS)
def test_property_csvs_of_several_grids_match_oracle(grids):
    _assert_same_csvs(grids)


def test_lg_carrier_is_shared_read_only_and_exact():
    grid = Grid(nx=33, ny=21)
    first = lg_amplitude(1, grid)
    assert lg_amplitude(1, grid) is first
    assert not first.flags.writeable
    with pytest.raises(ValueError):
        first[0, 0] = 0.0
    fresh = lg_amplitude.__wrapped__(1, grid)
    assert fresh.tobytes() == first.tobytes()
    assert lg_amplitude(-1, grid).tobytes() == lg_amplitude.__wrapped__(-1, grid).tobytes()


def test_field_maps_render_each_distinct_array_once(monkeypatch):
    """Every state of the preset is a unit-power state of charge +-1 with the
    intensity |LG_{+1}|^2, so a run renders one PGM and one CSV, whose repr
    table is its one _float_text, for all six states.  zero and one share
    their relative phase (0) and saturation (0), so the six states make five
    PPMs, each the bytes of the general Jones map's hue."""
    calls = {"render_pgm": 0, "render_ppm": 0, "render_grid_csv": 0, "_float_text": 0}
    originals = {name: getattr(pipeline, name) for name in calls if name != "_float_text"}
    originals["_float_text"] = text._float_text

    def counted(name):
        def render(*args):
            calls[name] += 1
            return originals[name](*args)
        return render

    for name in calls:
        monkeypatch.setattr(text if name == "_float_text" else pipeline, name, counted(name))
    cfg = config.default_config("field_maps")
    pixmaps = dict(pipeline.run(cfg).texts)
    assert calls == {"render_pgm": 1, "render_ppm": 5, "render_grid_csv": 1, "_float_text": 1}
    for state in cfg.input_states:
        hue, intensity, saturation = _field_map(state, Grid())
        assert_same_text(
            {k: v for k, v in pixmaps.items() if k.startswith(f"{state}_")},
            {f"{state}_intensity.pgm": originals["render_pgm"](intensity),
             f"{state}_polarization.ppm": originals["render_ppm"](hue, intensity, saturation),
             f"{state}_intensity.csv": originals["render_grid_csv"](intensity)})
