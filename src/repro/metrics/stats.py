"""Summary statistics used throughout the evaluation.

Conventions follow the paper: Table I reports average bandwidth,
standard deviation and "covariance" (their term for the coefficient of
variation, std/mean, shown as a percentage); Section II defines the
**imbalance factor** of an IO action as "the ratio of the slowest vs
fastest write times across all writers".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "SampleStats",
    "imbalance_factor",
    "summarize",
]


def imbalance_factor(write_times: Sequence[float]) -> float:
    """Slowest/fastest write time across the writers of one IO action."""
    arr = np.asarray(write_times, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("need at least one write time")
    if (arr < 0).any():
        raise ValueError("write times must be non-negative")
    fastest = arr.min()
    if fastest == 0:
        return float("inf")
    return float(arr.max() / fastest)


@dataclass(frozen=True)
class SampleStats:
    """Summary of one metric over repeated samples."""

    n: int
    mean: float
    std: float
    minimum: float
    maximum: float

    @property
    def cov(self) -> float:
        """std/mean (the paper's "covariance"), as a fraction.

        The std is the population one, matching how monitoring
        repositories summarize full sample sets.
        """
        if self.mean == 0:
            return float("inf")
        return self.std / self.mean

    @property
    def cov_percent(self) -> float:
        return 100.0 * self.cov


def summarize(values: Sequence[float]) -> SampleStats:
    """Summarize a sample set."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("need at least one value")
    return SampleStats(
        n=int(arr.size),
        mean=float(arr.mean()),
        std=float(arr.std()),
        minimum=float(arr.min()),
        maximum=float(arr.max()),
    )
