"""Statistics the paper reports: bandwidth summaries, CoV, imbalance."""

from repro.metrics.stats import (
    SampleStats,
    coefficient_of_variation,
    imbalance_factor,
    summarize,
)
from repro.metrics.histogram import Histogram, text_histogram
from repro.metrics.timeline import WriterTimeline

__all__ = [
    "Histogram",
    "SampleStats",
    "WriterTimeline",
    "coefficient_of_variation",
    "imbalance_factor",
    "summarize",
    "text_histogram",
]
