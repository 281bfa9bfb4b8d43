"""IOR run configuration."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.units import MB

__all__ = ["IorConfig"]


@dataclass(frozen=True)
class IorConfig:
    """One IOR invocation, paper-style.

    Parameters
    ----------
    n_writers:
        MPI processes, each writing one block.
    block_size:
        Bytes per writer (weak scaling: total = n_writers * block_size).
    api:
        "posix" (one file per writer, the paper's configuration) or
        "mpiio" (single shared file).
    n_osts_used:
        Storage targets the writers are split across ("the IOR program
        is configured to use 512 OSTs"); ``None`` = the whole pool.

    A POSIX run times the write only, with no flush (Section II).
    """

    n_writers: int
    block_size: float = 128.0 * MB
    api: str = "posix"
    n_osts_used: Optional[int] = None

    def __post_init__(self):
        if self.n_writers < 1:
            raise ValueError("n_writers must be >= 1")
        if self.block_size <= 0:
            raise ValueError("block_size must be positive")
        if self.api not in ("posix", "mpiio"):
            raise ValueError(f"unknown api {self.api!r}")

    @property
    def total_bytes(self) -> float:
        return self.n_writers * self.block_size
