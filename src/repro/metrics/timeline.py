"""Per-writer timeline analysis (Fig. 3 of the paper)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Sequence

import numpy as np

from repro.metrics.stats import imbalance_factor

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.transports.base import WriterTiming

__all__ = ["WriterTimeline"]


@dataclass(frozen=True)
class WriterTimeline:
    """Per-writer write durations of one IO action, rank-ordered."""

    durations: np.ndarray

    @classmethod
    def of(cls, timings: Sequence["WriterTiming"]) -> "WriterTimeline":
        ordered = sorted(timings, key=lambda w: w.rank)
        return cls(np.array([w.duration for w in ordered]))

    @property
    def n_writers(self) -> int:
        return int(self.durations.size)

    @property
    def imbalance_factor(self) -> float:
        return imbalance_factor(self.durations)

    @property
    def slowest(self) -> float:
        return float(self.durations.max())

    @property
    def fastest(self) -> float:
        return float(self.durations.min())

    def slow_writer_ranks(self, factor: float = 2.0) -> List[int]:
        """Ranks slower than ``factor``x the median."""
        med = float(np.median(self.durations))
        return np.nonzero(self.durations > factor * med)[0].tolist()
