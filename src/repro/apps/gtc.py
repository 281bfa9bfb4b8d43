"""GTC (gyrokinetic toroidal code) IO kernel.

The paper cites GTC as generating ~128 MB per process at production
scale ("this 128 MB/process data size is comparable to what many of
the fusion codes generate on a per process basis, such as GTC").
"""

from __future__ import annotations

from repro.apps.base import AppKernel, Variable

__all__ = ["gtc"]


PARTICLES_PER_PROCESS = 2_000_000


def gtc() -> AppKernel:
    """A GTC restart kernel, ~128 MB/process.

    8 phase-space components per particle at 8 bytes each =
    64 B/particle; 2 M particles -> 128 MB.
    """
    variables = [
        Variable(
            "zion",
            shape=(PARTICLES_PER_PROCESS, 8),
            dtype="f8",
            value_range=(-1.0, 1.0),
        ),
    ]
    return AppKernel("gtc", variables)
