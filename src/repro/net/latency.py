"""Small-message latency model for the control plane.

Control messages (the WRITE_COMPLETE / ADAPTIVE_WRITE_START traffic of
Algorithms 1-3, index shipping, collective trees) are latency-bound,
not bandwidth-bound, so they bypass the fluid network and use the
classic alpha-beta (LogP-lite) model:

    t(size) = alpha + size * beta

Defaults approximate a SeaStar-class torus: ~6 us one-way latency and
~2 GB/s per-message streaming rate.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["MessageLatencyModel"]


@dataclass(frozen=True)
class MessageLatencyModel:
    """alpha-beta message latency.

    Parameters
    ----------
    alpha:
        Fixed per-message latency, seconds.
    beta:
        Seconds per byte (inverse bandwidth).
    """

    alpha: float = 6.0e-6
    beta: float = 1.0 / 2.0e9

    def __post_init__(self):
        if self.alpha < 0 or self.beta < 0:
            raise ValueError("latency parameters must be non-negative")

    def point_to_point(self, nbytes: float) -> float:
        """One-way latency of an *nbytes* message."""
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        return self.alpha + nbytes * self.beta

    def tree_collective(self, nbytes: float, n_participants: int) -> float:
        """Cost of a binomial-tree collective over *n_participants*."""
        if n_participants < 1:
            raise ValueError("n_participants must be >= 1")
        depth = max(1, (n_participants - 1)).bit_length()
        return depth * self.point_to_point(nbytes)
