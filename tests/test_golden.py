"""Golden output digests: the SHA-256 of every file each scenario preset
writes at seed 12345.

The digests were recorded before the field-map renderers were rewritten and
must not move: a change that alters output bytes has to update them here
and say why.  Each scenario run must also stay fast enough for the tier-1
suite.
"""

import hashlib
import time
from dataclasses import replace

import pytest

from vortexmem import cli

SEED = 12345
RUN_BUDGET_S = 2.0   # the slowest preset, field_maps, takes ~0.4 s on a 2-vCPU VM

GOLDEN = {
    "store_tomography": {
        "results.csv":
            "01761ab7d9bdb5cd3d4cdb70c93bf7d61746d8f146ba989bb268297365b5a747",
        "results.jsonl":
            "8da85761dcb7f574fee2c9f9f6c214897b34d003e5a528dcb3b740ae5bcc2190",
        "density_matrices.json":
            "07437e4645f50d49489eb120d7961a3998f265ab6c6347c9ee1638d060fa7046",
    },
    "fidelity_vs_time": {
        "results.csv":
            "c01ebda4f81b417941b0340718f4165ee435b54030334cbc653480cbb4967fad",
        "results.jsonl":
            "5d3d07ed31a3ed16552d4b467e52518ba38a288e62bf3cca1e69fc7282c56aae",
    },
    "fidelity_vs_rotation": {
        "results.csv":
            "426e832033cba7cd5eb0c46746e56fe65e93902b6f73d5153f8370400f78d532",
        "results.jsonl":
            "05d0ad00ae79dbdd4f811176ae10ffc5d8bdd8df9ae3b57745f92130ab4f6cda",
    },
    "field_maps": {
        "zero_intensity.pgm":
            "4eebfcb327bb9d5978919692b2409bc3f926cc80812acfd1a720934f44e59cac",
        "zero_polarization.ppm":
            "76f2426974fd7db8f891fc04726d4ce7a434f92c0759e8419e290a5d57cf52d0",
        "zero_intensity.csv":
            "a0114a28d6cf08cad8ef77e58a6097324ef23882ca1512d7b495c98f0a690e1c",
        "one_intensity.pgm":
            "4eebfcb327bb9d5978919692b2409bc3f926cc80812acfd1a720934f44e59cac",
        "one_polarization.ppm":
            "76f2426974fd7db8f891fc04726d4ce7a434f92c0759e8419e290a5d57cf52d0",
        "one_intensity.csv":
            "a0114a28d6cf08cad8ef77e58a6097324ef23882ca1512d7b495c98f0a690e1c",
        "radial_intensity.pgm":
            "4eebfcb327bb9d5978919692b2409bc3f926cc80812acfd1a720934f44e59cac",
        "radial_polarization.ppm":
            "04444f309d47616fdccb56bf936768e21177af79dd54ef2565b9724f310557d6",
        "radial_intensity.csv":
            "2aa25b1d245d1b0492552c49c0eb8a2e367980630543f256314c1e02e5101da9",
        "azimuthal_intensity.pgm":
            "4eebfcb327bb9d5978919692b2409bc3f926cc80812acfd1a720934f44e59cac",
        "azimuthal_polarization.ppm":
            "f681a30744997b0ee2bda7e62b0445542ac7af4a58896abf146317eaf92ff285",
        "azimuthal_intensity.csv":
            "2aa25b1d245d1b0492552c49c0eb8a2e367980630543f256314c1e02e5101da9",
        "plus_i_intensity.pgm":
            "4eebfcb327bb9d5978919692b2409bc3f926cc80812acfd1a720934f44e59cac",
        "plus_i_polarization.ppm":
            "a5d41eecc43dbeeaf31d62886cfa59b08676aacd44fdb2cde98e4e6bcaf41730",
        "plus_i_intensity.csv":
            "f442e5d5cca10a3cdc7a6fad9cc7ebb83764483e9b9dc75d4125fde00a6f0ac0",
        "minus_i_intensity.pgm":
            "4eebfcb327bb9d5978919692b2409bc3f926cc80812acfd1a720934f44e59cac",
        "minus_i_polarization.ppm":
            "36abc16eaa93010aa9b3facac769d407f2e8e1479a4ba131faf2f6c072acfd77",
        "minus_i_intensity.csv":
            "f442e5d5cca10a3cdc7a6fad9cc7ebb83764483e9b9dc75d4125fde00a6f0ac0",
    },
    "bounds_table": {
        "bounds.csv":
            "be018bb9554579ecdfc04b78fc4f18cafea689459630304f96d553e022ee588d",
    },
}


@pytest.mark.parametrize("scenario", cli.SCENARIOS)
def test_preset_output_digests(scenario, tmp_path):
    cfg = replace(cli.default_config(scenario), seed=SEED)
    start = time.perf_counter()
    written = cli.emit(cli.run(cfg), tmp_path)
    elapsed = time.perf_counter() - start
    digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in written}
    assert digests == GOLDEN[scenario]
    assert elapsed < RUN_BUDGET_S
