"""Exact mode in closed form: physics identities checked on the pipeline's
own result table, not against tests/oracles.py, which restates the same
model job by job and so shares any wrong formula with the package.

Raw from corrected.  In exact mode a projector's count is
(bg + nbar * signal) / (1 + nbar) and its expected background
bg / (1 + nbar).  A basis pair's two signals sum to the job's survival s,
so each pair's counts sum to (2 bg + nbar s) / (1 + nbar), and the raw
Stokes vector is the corrected one times the visibility
V = nbar s / (2 bg + nbar s).  As 2F - 1 is the Stokes vector's projection
on the target's, 2 F_raw - 1 = V (2 F_corr - 1) on every job with both
estimates whose raw Bloch vector needs no projection onto the unit ball.
"""

from dataclasses import replace

import numpy as np
import pytest

from vortexmem import config, pipeline

JOB_PRESETS = ("store_tomography", "fidelity_vs_time", "fidelity_vs_rotation")
# rail (imbalance, phase error): balanced, slightly and strongly off
RAILS = ((0.0, 0.0), (0.05, 0.05), (0.3, 0.7))
# the sweeps' axes; store_tomography keeps its one time and angle
SWEEP_AXES = {"storage_times": (0.5, 1.0, 7.0, 20.0), "rotation_angles": (0.0, 0.3, 1.1)}
TOL = 1e-13


def _exact_run(scenario, imbalance, phase_error):
    cfg = config.default_config(scenario)
    cfg = replace(cfg, trials_per_projection=0,
                  memory=replace(cfg.memory, rail_imbalance=imbalance, rail_phase_error=phase_error),
                  **({} if scenario == "store_tomography" else SWEEP_AXES))
    return cfg, pipeline.run(cfg).table


@pytest.mark.parametrize("rails", RAILS, ids=lambda r: f"rails{r[0]}-{r[1]}")
@pytest.mark.parametrize("scenario", JOB_PRESETS)
def test_raw_fidelity_is_the_corrected_one_times_the_visibility(scenario, rails):
    cfg, table = _exact_run(scenario, *rails)
    nbar, bg, s = cfg.source.nbar, cfg.memory.bg_click, table.survival
    visibility = nbar * s / (2.0 * bg + nbar * s)
    rows = (table.reconstructed & table.corrected
            & (np.linalg.norm(table.stokes, axis=1) <= 1.0))
    # exact counts give every job here both estimates and a raw Bloch vector
    # inside the ball, so the identity is checked on every row
    assert rows.all()
    residual = (2.0 * table.f_raw - 1.0) - visibility * (2.0 * table.f_corr - 1.0)
    assert np.abs(residual).max() <= TOL
