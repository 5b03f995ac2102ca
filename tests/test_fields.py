import math

import numpy as np
import pytest

from helpers import carrier_intensity, haar_states, peak_radius, project_polarization, stokes
from vortexmem import config, pipeline
from vortexmem.fields import Grid, azimuth, lg_amplitude, vector_field_map
from vortexmem.hilbert import HYBRID_SPHERE_NAMES, named_state

# odd pixel counts place samples exactly on the coordinate axes
GRID = Grid(nx=257, ny=257, extent=3.0)

H_ANALYZER = np.array([1.0, 0.0])
V_ANALYZER = np.array([0.0, 1.0])


def _angle_dist(a, b):
    """Distance between orientations mod pi."""
    return np.abs(np.mod(a - b + math.pi / 2, math.pi) - math.pi / 2)


class TestLGModes:
    def test_gaussian_peaks_on_axis(self):
        intensity = np.abs(lg_amplitude(0, GRID)) ** 2
        assert peak_radius(intensity, GRID) == 0.0

    def test_doughnut_has_central_null(self):
        field = lg_amplitude(1, GRID)
        center = (GRID.ny // 2, GRID.nx // 2)
        assert abs(field[center]) < 1e-14
        assert np.abs(field).max() > 0

    def test_unit_power(self):
        for l in (0, 1, 4, -3):
            field = lg_amplitude(l, GRID)
            assert (np.abs(field) ** 2).sum() * GRID.pixel_area() == pytest.approx(1.0, abs=1e-12)

    def test_peak_radius_scales_as_sqrt_charge(self):
        r1 = peak_radius(np.abs(lg_amplitude(1, GRID)) ** 2, GRID)
        r4 = peak_radius(np.abs(lg_amplitude(4, GRID)) ** 2, GRID)
        pixel = 2 * GRID.extent / (GRID.nx - 1)
        assert abs(r4 - 2.0 * r1) <= pixel
        assert r1 == pytest.approx(math.sqrt(0.5), abs=pixel)

    def test_phase_winds_by_2pi_l(self):
        xx, yy = GRID.mesh()
        r = np.hypot(xx, yy)
        for l in (1, -1, 3):
            field = lg_amplitude(l, GRID)
            ring = (r > 0.9) & (r < 1.1)
            angles = np.arctan2(yy[ring], xx[ring])
            order = np.argsort(angles)
            phases = np.angle(field[ring])[order]
            closed = np.append(phases, phases[0])
            step = np.mod(np.diff(closed) + math.pi, 2 * math.pi) - math.pi
            winding = step.sum() / (2 * math.pi)
            assert winding == pytest.approx(l, abs=1e-9)


class TestVectorFieldMap:
    def test_radial_polarization_points_along_radius(self):
        fmap = vector_field_map(named_state("radial"), GRID)
        xx, yy = GRID.mesh()
        phi = np.mod(np.arctan2(yy, xx), math.pi)
        mask = np.hypot(xx, yy) > 0.2
        assert _angle_dist(azimuth(fmap), phi)[mask].max() < 1e-9

    def test_azimuthal_polarization_is_rotated_90(self):
        fmap = vector_field_map(named_state("azimuthal"), GRID)
        xx, yy = GRID.mesh()
        phi = np.mod(np.arctan2(yy, xx) + math.pi / 2, math.pi)
        mask = np.hypot(xx, yy) > 0.2
        assert _angle_dist(azimuth(fmap), phi)[mask].max() < 1e-9

    def test_pole_state_is_uniformly_circular(self):
        intensity, _, _, s3 = stokes(vector_field_map(named_state("zero"), GRID))
        # doughnut: central null
        assert intensity[GRID.ny // 2, GRID.nx // 2] < 1e-25
        # fully circular polarization wherever there is light
        mask = intensity > 1e-6 * intensity.max()
        assert np.abs(np.abs(s3[mask] / intensity[mask]) - 1.0).max() < 1e-9

    @pytest.mark.parametrize("name", ["zero", "one"])
    def test_circular_states_have_azimuth_zero(self, name):
        """s1 = s2 = 0 exactly on every pixel of a pole state, so its
        polarization map (on the preset's grid) gets no hue from round-off."""
        assert (azimuth(vector_field_map(named_state(name), Grid())) == 0.0).all()

    def test_unit_total_power(self):
        for name in HYBRID_SPHERE_NAMES:
            fmap = vector_field_map(named_state(name), GRID)
            power = stokes(fmap)[0].sum() * GRID.pixel_area()
            assert power == pytest.approx(1.0, abs=1e-9)

    def test_intensity_rotation_invariant(self):
        for name in HYBRID_SPHERE_NAMES:
            intensity = stokes(vector_field_map(named_state(name), GRID))[0]
            rotated = np.rot90(intensity)
            scale = intensity.max()
            assert np.abs(rotated - intensity).max() / scale < 1e-6


# the named states and Haar-random ones: every normalized (c0, c1)
_STATES = ([named_state(name) for name in HYBRID_SPHERE_NAMES]
           + haar_states(np.random.default_rng(2011), 24))


class TestCarrierIntensity:
    """The closed form field_maps renders: a unit-power state of charge +-1
    has the intensity |LG_{+1}|^2 and a degree of linear polarization
    2|c0||c1| on every pixel, whatever (c0, c1)."""

    @pytest.mark.parametrize("c", _STATES)
    def test_intensity_is_the_carriers(self, c):
        want = carrier_intensity(GRID)
        got = stokes(vector_field_map(c, GRID))[0]
        assert np.abs(got - want).max() <= 1e-15 * want.max()

    @pytest.mark.parametrize("c", _STATES)
    def test_degree_of_linear_polarization_is_uniform(self, c):
        s0, s1, s2, _ = stokes(vector_field_map(c, GRID))
        lit = s0 > 1e-6 * s0.max()
        dolp = np.sqrt(s1[lit] ** 2 + s2[lit] ** 2) / s0[lit]
        assert np.abs(dolp - 2.0 * abs(c[0]) * abs(c[1])).max() <= 1e-12

    def test_run_writes_one_intensity_and_grey_circular_light(self):
        texts = dict(pipeline.run(config.default_config("field_maps")).texts)
        for suffix in ("_intensity.csv", "_intensity.pgm"):
            assert len({t for name, t in texts.items() if name.endswith(suffix)}) == 1
        for name in ("zero", "one"):
            samples = np.array(texts[f"{name}_polarization.ppm"].split()[4:], dtype=int)
            rgb = samples.reshape(-1, 3)
            assert (rgb == rgb[:, :1]).all() and rgb.max() == 255


class TestProjections:
    def test_radial_h_projection_has_two_lobes_with_zero_line(self):
        fmap = vector_field_map(named_state("radial"), GRID)
        proj = project_polarization(fmap, H_ANALYZER)
        xx, yy = GRID.mesh()
        on_y_axis = np.isclose(xx, 0.0)
        assert proj[on_y_axis].max() < 1e-10 * proj.max()
        # bilateral symmetry of the lobes about the y axis
        assert np.abs(proj - proj[:, ::-1]).max() < 1e-12 * proj.max()

    def test_v_projection_is_h_rotated_90(self):
        fmap = vector_field_map(named_state("radial"), GRID)
        ph = project_polarization(fmap, H_ANALYZER)
        pv = project_polarization(fmap, V_ANALYZER)
        assert np.abs(np.rot90(ph) - pv).max() < 1e-9

    def test_orthogonal_projections_conserve_power(self):
        for name in HYBRID_SPHERE_NAMES:
            fmap = vector_field_map(named_state(name), GRID)
            ph = project_polarization(fmap, H_ANALYZER)
            pv = project_polarization(fmap, V_ANALYZER)
            total = (ph + pv).sum() * GRID.pixel_area()
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_pole_state_projects_to_scaled_doughnut(self):
        fmap = vector_field_map(named_state("zero"), GRID)
        intensity = stokes(fmap)[0]
        for analyzer, weight in ((H_ANALYZER, 0.5), (V_ANALYZER, 0.5)):
            proj = project_polarization(fmap, analyzer)
            assert np.abs(proj - weight * intensity).max() < 1e-12


class TestGrid:
    def test_default_size(self):
        g = Grid()
        assert (g.nx, g.ny, g.extent) == (256, 256, 3.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            Grid(nx=1)
        with pytest.raises(ValueError):
            Grid(extent=0.0)

    def test_pixel_area(self):
        g = Grid(nx=5, ny=5, extent=2.0)
        assert g.pixel_area() == pytest.approx(1.0)
