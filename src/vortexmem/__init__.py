"""Deterministic simulator of vector vortex beam storage in a dual-rail
atomic quantum memory.

Modules
-------
hilbert         state algebra for hybrid polarization-OAM and polarization qubits
optics          q-plate pass on amplitude pairs and detection-frame rotation
memory          dual-rail storage-and-retrieval channel, in closed form
photodetection  weak-coherent click statistics behind projective analyzers
tomography      six-projector density-matrix reconstruction
security        classical-memory (intercept-resend) fidelity benchmarks
fields          transverse intensity and polarization maps
config          experiment configuration, scenario presets and validation
pipeline        batched job pipeline and scenario runs
text            pixmaps, result files, stdout table and offline count records
cli             command-line entry point
"""

import importlib

from . import (config, fields, hilbert, memory, optics, photodetection, pipeline, security, text,
               tomography)

__all__ = [
    "cli",
    "config",
    "fields",
    "hilbert",
    "memory",
    "optics",
    "photodetection",
    "pipeline",
    "security",
    "text",
    "tomography",
]

__version__ = "0.1.0"


def __getattr__(name):
    # cli is imported on first use, so that ``python -m vortexmem.cli`` finds
    # it not yet imported and runs the one copy, as __main__
    if name == "cli":
        return importlib.import_module(".cli", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
