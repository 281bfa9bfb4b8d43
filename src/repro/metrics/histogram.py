"""Histograms of IO bandwidth samples (Fig. 2 of the paper)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, List, Sequence

import numpy as np

__all__ = ["Histogram", "text_histogram"]


@dataclass(frozen=True)
class Histogram:
    """Fixed-bin histogram of a sample set, ranged over its samples."""

    # Fig. 2's bin count.
    n_bins: ClassVar[int] = 12

    edges: np.ndarray  # n_bins + 1
    counts: np.ndarray  # n_bins

    @classmethod
    def of(cls, values: Sequence[float]) -> "Histogram":
        arr = np.asarray(values, dtype=np.float64)
        if arr.size == 0:
            raise ValueError("need at least one value")
        lo, hi = arr.min(), arr.max()
        if hi <= lo:
            hi = lo + 1.0
        counts, edges = np.histogram(arr, bins=cls.n_bins, range=(lo, hi))
        return cls(edges=edges, counts=counts)

    def bin_centers(self) -> np.ndarray:
        return 0.5 * (self.edges[:-1] + self.edges[1:])


BAR_WIDTH = 40  # characters in the tallest bin's bar


def text_histogram(hist: Histogram) -> List[str]:
    """Render a bandwidth histogram (MB/s bins) as terminal bar-chart
    lines."""
    peak = max(int(hist.counts.max()), 1)
    lines = []
    centers = hist.bin_centers()
    for c, n in zip(centers, hist.counts):
        bar = "#" * int(round(BAR_WIDTH * n / peak))
        lines.append(f"{c:9.0f} MB/s |{bar} {n}")
    return lines
