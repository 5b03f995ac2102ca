"""Deterministic simulator of vector vortex beam storage in a dual-rail
atomic quantum memory.

Modules
-------
hilbert         state algebra for hybrid polarization-OAM and polarization qubits
optics          q-plate encode/decode, frame rotation, beam displacers
memory          phenomenological storage-and-retrieval channel
photodetection  weak-coherent click statistics behind projective analyzers
tomography      six-projector density-matrix reconstruction
security        classical-memory (intercept-resend) fidelity benchmarks
fields          transverse intensity and polarization maps
cli             configuration-driven experiment runner and file formats
"""

from . import cli, fields, hilbert, memory, optics, photodetection, security, tomography

__all__ = [
    "cli",
    "fields",
    "hilbert",
    "memory",
    "optics",
    "photodetection",
    "security",
    "tomography",
]

__version__ = "0.1.0"
