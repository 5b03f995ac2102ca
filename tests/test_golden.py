"""Golden output digests: the SHA-256 of every file each scenario preset
writes at seed 12345.

The bounds digest, and the field-map digests up to their one re-pin
below, date from before the field-map renderers were rewritten.  The
digests of the three sampled presets (store_tomography, fidelity_vs_time,
fidelity_vs_rotation) were regenerated once when a run came to draw all its
counts from one stream, default_rng(seed), and the batch arithmetic became
plain numpy ufuncs.  Their results files (not
density_matrices.json) changed once more when the dual-rail memory became
its closed form (memory.rail_gains): the survival, the snr and
bound_efficiency computed from it moved in their last bits (at most
2.5e-15 relative; 4, 40 and 64 survivals of the three presets), while
every count, fidelity, Stokes vector and density matrix kept its bits.  A
change that alters output bytes has to update the digests here and say
why.  Each scenario run must
also stay fast enough for the tier-1 suite.

The field_maps digests were re-pinned twice.  The first time, the carrier
and the intensity stopped using numpy's exp, hypot, abs and arctan2, whose
SIMD loops round differently per CPU (fields.lg_amplitude; arctan2 is left
for the azimuth only). 8 of the 18 files changed: the six _intensity.csv
files, whose intensities moved in their last bits, and
zero/one_polarization.ppm, whose hue had been drawn from the sign of
round-off and is now 0 on every pixel. The six PGMs and the radial,
azimuthal, plus_i and minus_i PPMs kept their bytes. Every preset now
writes the same bytes at every x86-64 SIMD level, which
test_no_preset_depends_on_the_simd_level checks.

The second time, every state's intensity became the one closed form it
equals, |LG_{+1}|^2 of the carrier (a unit-power state of charge +-1), and
the PPM gained a saturation, the state's degree of linear polarization
2|c0||c1|.  The same 8 files changed: the six _intensity.csv files, which
had printed three round-off versions of that grid, are now one text, and
zero/one_polarization.ppm, circular light of saturation 0, are grey.  The
six PGMs and the four other PPMs (saturation 0.9999999999999998) kept
their bytes.
"""

import hashlib
import os
import platform
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

from vortexmem import config, pipeline, text

SEED = 12345
RUN_BUDGET_S = 2.0   # the slowest preset, field_maps, takes ~0.07–0.1 s on a 2-vCPU VM

GOLDEN = {
    "store_tomography": {
        "results.csv":
            "7f187352547649337ec4bb44254f6599bef7c4c47f2d6d4c3cb35c7c3212d87e",
        "results.jsonl":
            "ce62b0a8142ad8bf4dd604dba33c4ca30c99133b5e7ce1aa62400bb2bf4d0076",
        "density_matrices.json":
            "5614d19f70ad2067eab69fed04c0d88247f122bd4677d0587f38945181f2a465",
    },
    "fidelity_vs_time": {
        "results.csv":
            "dd358ceaccf0032a0a08fb09c42aa31da2b223fc88d18c4c4b39dc425ac3594f",
        "results.jsonl":
            "9f8e133adc3d2d2c5ca0ee6404895b0057dc079931dee820ef7876fefaf634f2",
    },
    "fidelity_vs_rotation": {
        "results.csv":
            "36449ec1501c28edb5f8f677dd97215908e419ccda0e06699d4241862ed008f7",
        "results.jsonl":
            "00893f3c0de0120c7f3398fbba5fbb9154930bad92cf7de0fee92003134c3f45",
    },
    "field_maps": {
        "zero_intensity.pgm":
            "4eebfcb327bb9d5978919692b2409bc3f926cc80812acfd1a720934f44e59cac",
        "zero_polarization.ppm":
            "6bfb39727890ed125d2e85bf9b8928d5f9b46f6a861443c95fdd80b4eab86d78",
        "zero_intensity.csv":
            "aebf24b6edacb4b939a7aa04fd2b8379159dc570b0dbe36aeb22a7ed552910af",
        "one_intensity.pgm":
            "4eebfcb327bb9d5978919692b2409bc3f926cc80812acfd1a720934f44e59cac",
        "one_polarization.ppm":
            "6bfb39727890ed125d2e85bf9b8928d5f9b46f6a861443c95fdd80b4eab86d78",
        "one_intensity.csv":
            "aebf24b6edacb4b939a7aa04fd2b8379159dc570b0dbe36aeb22a7ed552910af",
        "radial_intensity.pgm":
            "4eebfcb327bb9d5978919692b2409bc3f926cc80812acfd1a720934f44e59cac",
        "radial_polarization.ppm":
            "04444f309d47616fdccb56bf936768e21177af79dd54ef2565b9724f310557d6",
        "radial_intensity.csv":
            "aebf24b6edacb4b939a7aa04fd2b8379159dc570b0dbe36aeb22a7ed552910af",
        "azimuthal_intensity.pgm":
            "4eebfcb327bb9d5978919692b2409bc3f926cc80812acfd1a720934f44e59cac",
        "azimuthal_polarization.ppm":
            "f681a30744997b0ee2bda7e62b0445542ac7af4a58896abf146317eaf92ff285",
        "azimuthal_intensity.csv":
            "aebf24b6edacb4b939a7aa04fd2b8379159dc570b0dbe36aeb22a7ed552910af",
        "plus_i_intensity.pgm":
            "4eebfcb327bb9d5978919692b2409bc3f926cc80812acfd1a720934f44e59cac",
        "plus_i_polarization.ppm":
            "a5d41eecc43dbeeaf31d62886cfa59b08676aacd44fdb2cde98e4e6bcaf41730",
        "plus_i_intensity.csv":
            "aebf24b6edacb4b939a7aa04fd2b8379159dc570b0dbe36aeb22a7ed552910af",
        "minus_i_intensity.pgm":
            "4eebfcb327bb9d5978919692b2409bc3f926cc80812acfd1a720934f44e59cac",
        "minus_i_polarization.ppm":
            "36abc16eaa93010aa9b3facac769d407f2e8e1479a4ba131faf2f6c072acfd77",
        "minus_i_intensity.csv":
            "aebf24b6edacb4b939a7aa04fd2b8379159dc570b0dbe36aeb22a7ed552910af",
    },
    "bounds_table": {
        "bounds.csv":
            "be018bb9554579ecdfc04b78fc4f18cafea689459630304f96d553e022ee588d",
    },
}


@pytest.mark.parametrize("scenario", config.SCENARIOS)
def test_preset_output_digests(scenario, tmp_path):
    cfg = replace(config.default_config(scenario), seed=SEED)
    start = time.perf_counter()
    written = text.emit(pipeline.run(cfg), tmp_path)
    elapsed = time.perf_counter() - start
    digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in written}
    assert digests == GOLDEN[scenario]
    assert elapsed < RUN_BUDGET_S


# CI's two lower SIMD levels: without AVX-512, and numpy's X86_V2 baseline alone
SIMD_SETTINGS = ("X86_V4 AVX512_ICL AVX512_SPR", "X86_V4 X86_V3 AVX512_ICL AVX512_SPR")

_EMIT_PRESETS = """
import sys
from dataclasses import replace
from vortexmem import config, pipeline, text
for scenario in config.SCENARIOS:
    cfg = replace(config.default_config(scenario), seed=int(sys.argv[2]))
    text.emit(pipeline.run(cfg), f"{sys.argv[1]}/{scenario}")
"""


def _file_digests(root: Path) -> dict[str, str]:
    return {str(path.relative_to(root)): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(root.rglob("*")) if path.is_file()}


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                    reason="NPY_DISABLE_CPU_FEATURES names x86-64 SIMD levels")
@pytest.mark.parametrize("features", SIMD_SETTINGS)
def test_no_preset_depends_on_the_simd_level(features, tmp_path):
    """Every preset writes the same bytes when numpy may not use the
    disabled SIMD levels.  numpy warns on import, and so refuses, a setting
    its build does not dispatch; the run then skips."""
    src = Path(pipeline.__file__).resolve().parent.parent
    lower = tmp_path / "lower"
    done = subprocess.run(
        [sys.executable, "-W", "error::ImportWarning", "-c", _EMIT_PRESETS, str(lower), str(SEED)],
        env={**os.environ, "PYTHONPATH": str(src), "NPY_DISABLE_CPU_FEATURES": features},
        capture_output=True, text=True, timeout=120)
    if done.returncode != 0 and "NPY_DISABLE_CPU_FEATURES" in done.stderr:
        pytest.skip(f"numpy refuses NPY_DISABLE_CPU_FEATURES={features!r}")
    assert done.returncode == 0, done.stderr
    here = tmp_path / "here"
    for scenario in config.SCENARIOS:
        text.emit(pipeline.run(replace(config.default_config(scenario), seed=SEED)),
                  here / scenario)
    want, got = _file_digests(here), _file_digests(lower)
    assert sorted(got) == sorted(want)
    changed = [name for name in want if got[name] != want[name]]
    assert not changed, f"files that change with the SIMD level: {changed}"
