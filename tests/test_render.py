"""Field-map renderers against the per-pixel reference renderers, byte for byte."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import oracles
from helpers import assert_same_text
from vortexmem import cli, fields, hilbert
from vortexmem.fields import Grid, lg_amplitude, polarization_azimuth, vector_field_map
from vortexmem.hilbert import named_state


def _assert_same_renders(hue, intensity, **maxval):
    def renders(renderer):
        return {"pgm": renderer.render_pgm(intensity, **maxval),
                "ppm": renderer.render_ppm(hue, intensity, **maxval),
                "csv": renderer.render_grid_csv(intensity)}

    assert_same_text(renders(cli), renders(oracles))


def _field_map(name, grid):
    fmap = vector_field_map(named_state(name), grid)
    return polarization_azimuth(fmap) / math.pi, fmap.intensity()


@pytest.mark.parametrize("name", hilbert.HYBRID_SPHERE_NAMES)
def test_default_grid_matches_oracle(name):
    _assert_same_renders(*_field_map(name, Grid()))


def test_odd_non_square_grid_matches_oracle():
    hue, intensity = _field_map("radial", Grid(nx=31, ny=17))
    assert intensity.shape == (17, 31)
    _assert_same_renders(hue, intensity)


def test_all_zero_intensity_matches_oracle():
    zero = np.zeros((5, 7))
    _assert_same_renders(np.linspace(0.0, 2.0, 35).reshape(5, 7), zero)
    assert set(cli.render_pgm(zero).split("\n")[3:-1]) == {" ".join(["0"] * 7)}


@pytest.mark.parametrize("maxval", [1, 255, 65535])
def test_maxval_matches_oracle(maxval):
    hue, intensity = _field_map("plus_i", Grid(nx=23, ny=19))
    _assert_same_renders(hue, intensity, maxval=maxval)


@pytest.mark.parametrize("maxval", [0, -1, 65536])
def test_maxval_outside_netpbm_range_raises(maxval):
    with pytest.raises(ValueError, match="maxval"):
        cli.render_pgm(np.ones((2, 2)), maxval=maxval)
    with pytest.raises(ValueError, match="maxval"):
        cli.render_ppm(np.zeros((2, 2)), np.ones((2, 2)), maxval=maxval)


def test_csv_special_values_match_oracle():
    row = [-0.0, 0.0, 5e-324, 1e-300, 1e300, math.nan, 0.1, -2.5]
    values = np.array([row, row[::-1], row])
    text = cli.render_grid_csv(values)
    assert_same_text({"csv": text}, {"csv": oracles.render_grid_csv(values)})
    assert text.split("\n")[0] == "-0.0,0.0,5e-324,1e-300,1e+300,nan,0.1,-2.5"


@pytest.mark.parametrize("bad", [math.nan, math.inf, -0.5])
def test_invalid_intensity_raises(bad):
    intensity = np.array([[1.0, bad], [0.5, 0.2]])
    with pytest.raises(ValueError, match="intensity"):
        cli.render_pgm(intensity)
    with pytest.raises(ValueError, match="intensity"):
        cli.render_ppm(np.zeros((2, 2)), intensity)


@pytest.mark.parametrize("bad", [math.nan, -math.inf])
def test_non_finite_hue_raises(bad):
    with pytest.raises(ValueError, match="hue"):
        cli.render_ppm(np.array([[0.1, bad]]), np.array([[1.0, 0.5]]))


def test_csv_keeps_writing_non_finite_values():
    assert cli.render_grid_csv(np.array([[math.nan, -math.inf], [-0.0, 1.0]])) == \
        "nan,-inf\n-0.0,1.0\n"


_shapes = hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=9)
_intensity = st.floats(0.0, 1e300, allow_nan=False, allow_infinity=False)
_hue = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), shape=_shapes)
def test_property_finite_non_negative_arrays_match_oracle(data, shape):
    intensity = data.draw(hnp.arrays(np.float64, shape, elements=_intensity))
    hue = data.draw(hnp.arrays(np.float64, shape, elements=_hue))
    _assert_same_renders(hue, intensity)


def test_lg_carrier_is_shared_read_only_and_exact():
    grid = Grid(nx=33, ny=21)
    first = lg_amplitude(1, grid)
    assert lg_amplitude(1, grid) is first
    assert not first.flags.writeable
    with pytest.raises(ValueError):
        first[0, 0] = 0.0
    fresh = fields._lg_carrier.__wrapped__(1, grid, 1.0)
    assert fresh.tobytes() == first.tobytes()
    assert lg_amplitude(-1, grid).tobytes() == fields._lg_carrier.__wrapped__(-1, grid, 1.0).tobytes()


def test_field_maps_render_each_distinct_array_once(monkeypatch):
    """zero/one, radial/azimuthal and plus_i/minus_i have bit-identical
    intensities; zero/one also share their azimuths."""
    calls = {"render_pgm": 0, "render_ppm": 0, "render_grid_csv": 0}
    originals = {name: getattr(cli, name) for name in calls}

    def counted(name):
        def render(*args):
            calls[name] += 1
            return originals[name](*args)
        return render

    for name in calls:
        monkeypatch.setattr(cli, name, counted(name))
    cfg = cli.default_config("field_maps")
    pixmaps = dict(cli.run(cfg).pixmaps)
    assert calls == {"render_pgm": 3, "render_ppm": 5, "render_grid_csv": 3}
    for state in cfg.input_states:
        hue, intensity = _field_map(state, Grid())
        assert_same_text(
            {k: v for k, v in pixmaps.items() if k.startswith(f"{state}_")},
            {f"{state}_intensity.pgm": originals["render_pgm"](intensity),
             f"{state}_polarization.ppm": originals["render_ppm"](hue, intensity),
             f"{state}_intensity.csv": originals["render_grid_csv"](intensity)})
