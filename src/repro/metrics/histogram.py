"""Histograms of IO bandwidth samples (Fig. 2 of the paper)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

__all__ = ["Histogram", "text_histogram"]


@dataclass(frozen=True)
class Histogram:
    """Fixed-bin histogram of a sample set."""

    edges: np.ndarray  # n_bins + 1
    counts: np.ndarray  # n_bins

    @classmethod
    def of(
        cls,
        values: Sequence[float],
        n_bins: int = 20,
        low: Optional[float] = None,
        high: Optional[float] = None,
    ) -> "Histogram":
        arr = np.asarray(values, dtype=np.float64)
        if arr.size == 0:
            raise ValueError("need at least one value")
        if n_bins < 1:
            raise ValueError("n_bins must be >= 1")
        lo = arr.min() if low is None else low
        hi = arr.max() if high is None else high
        if hi <= lo:
            hi = lo + 1.0
        counts, edges = np.histogram(arr, bins=n_bins, range=(lo, hi))
        return cls(edges=edges, counts=counts)

    def bin_centers(self) -> np.ndarray:
        return 0.5 * (self.edges[:-1] + self.edges[1:])


def text_histogram(
    hist: Histogram,
    width: int = 40,
    label_fmt: str = "{:9.1f}",
    unit: str = "",
) -> List[str]:
    """Render a histogram as terminal bar-chart lines."""
    peak = max(int(hist.counts.max()), 1)
    lines = []
    centers = hist.bin_centers()
    for c, n in zip(centers, hist.counts):
        bar = "#" * int(round(width * n / peak))
        lines.append(f"{label_fmt.format(c)}{unit} |{bar} {n}")
    return lines
