"""Deterministic named random streams.

Every stochastic component in the simulator draws from its own named
child generator spawned from one root seed, so (a) whole experiments are
reproducible from a single integer, and (b) adding a new noise source
does not perturb the draws of existing ones.
"""

from __future__ import annotations

import hashlib
from typing import Dict

import numpy as np

__all__ = ["RngRegistry"]


class RngRegistry:
    """Registry of named, independent ``numpy.random.Generator`` streams.

    >>> rngs = RngRegistry(seed=7)
    >>> a = rngs.get("ost.3.noise")
    >>> b = rngs.get("ost.4.noise")
    >>> a is rngs.get("ost.3.noise")
    True

    Streams are derived by hashing the stream name together with the root
    seed, so the mapping name → stream is stable across processes and
    Python versions.
    """

    def __init__(self, seed: int = 0):
        if not isinstance(seed, int):
            raise TypeError(f"seed must be int, got {type(seed).__name__}")
        self.seed = seed
        self._streams: Dict[str, np.random.Generator] = {}

    def _derive(self, name: str) -> int:
        digest = hashlib.sha256(f"{self.seed}:{name}".encode()).digest()
        return int.from_bytes(digest[:8], "little")

    def get(self, name: str) -> np.random.Generator:
        """The generator for *name*, creating it on first use."""
        gen = self._streams.get(name)
        if gen is None:
            gen = np.random.default_rng(self._derive(name))
            self._streams[name] = gen
        return gen

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"RngRegistry(seed={self.seed}, streams={len(self._streams)})"
