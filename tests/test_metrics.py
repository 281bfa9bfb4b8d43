"""Unit + property tests for the metrics package."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics import (
    Histogram,
    WriterTimeline,
    imbalance_factor,
    summarize,
    text_histogram,
)
from repro.core.transports.base import WriterTiming


class TestStats:
    def test_cov_basic(self):
        assert summarize([1, 1, 1]).cov == 0.0
        v = summarize([1.0, 3.0]).cov
        assert v == pytest.approx(0.5)

    def test_cov_zero_mean(self):
        assert summarize([1.0, -1.0]).cov == float("inf")

    def test_cov_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_imbalance_factor_paper_example(self):
        # Slowest/fastest write time; factor 3.44 in the paper's Test 1.
        times = [1.0] * 10 + [3.44]
        assert imbalance_factor(times) == pytest.approx(3.44)

    def test_imbalance_equal_writers(self):
        assert imbalance_factor([2.0, 2.0, 2.0]) == 1.0

    def test_imbalance_zero_fastest(self):
        assert imbalance_factor([0.0, 1.0]) == float("inf")

    def test_imbalance_validation(self):
        with pytest.raises(ValueError):
            imbalance_factor([])
        with pytest.raises(ValueError):
            imbalance_factor([-1.0, 1.0])

    def test_summarize(self):
        s = summarize([1.0, 2.0, 3.0])
        assert s.n == 3
        assert s.mean == 2.0
        assert s.minimum == 1.0 and s.maximum == 3.0
        assert s.cov == pytest.approx(s.std / 2.0)
        assert s.cov_percent == pytest.approx(100 * s.cov)

    @given(st.lists(st.floats(0.1, 1e6), min_size=1, max_size=100))
    @settings(max_examples=100)
    def test_imbalance_at_least_one(self, times):
        assert imbalance_factor(times) >= 1.0

    @given(st.lists(st.floats(0.1, 1e6), min_size=2, max_size=50),
           st.floats(0.5, 10.0))
    @settings(max_examples=100)
    def test_cov_scale_invariant(self, values, k):
        a = summarize(values).cov
        b = summarize([v * k for v in values]).cov
        assert a == pytest.approx(b, rel=1e-6)


class TestHistogram:
    def test_of_counts_sum(self):
        h = Histogram.of([1, 2, 2, 3, 10], n_bins=5)
        assert h.counts.sum() == 5
        assert len(h.counts) == 5
        assert len(h.edges) == 6

    def test_degenerate_range(self):
        h = Histogram.of([5.0, 5.0], n_bins=4)
        assert h.counts.sum() == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            Histogram.of([], n_bins=3)
        with pytest.raises(ValueError):
            Histogram.of([1.0], n_bins=0)

    def test_text_histogram_lines(self):
        h = Histogram.of([1, 2, 3, 4], n_bins=4)
        lines = text_histogram(h, width=10)
        assert len(lines) == 4
        assert all("|" in line for line in lines)

    @given(st.lists(st.floats(-100, 100), min_size=1, max_size=200),
           st.integers(1, 30))
    @settings(max_examples=100)
    def test_counts_conserved(self, values, bins):
        h = Histogram.of(values, n_bins=bins)
        assert h.counts.sum() == len(values)


class TestWriterTimeline:
    def make(self, durations):
        timings = [
            WriterTiming(rank=i, start=0.0, end=d, nbytes=100.0)
            for i, d in enumerate(durations)
        ]
        return WriterTimeline.of(timings)

    def test_rank_ordering(self):
        timings = [
            WriterTiming(rank=1, start=0, end=2.0, nbytes=1),
            WriterTiming(rank=0, start=0, end=1.0, nbytes=1),
        ]
        t = WriterTimeline.of(timings)
        assert t.durations.tolist() == [1.0, 2.0]

    def test_imbalance(self):
        t = self.make([1.0, 2.0, 4.0])
        assert t.imbalance_factor == pytest.approx(4.0)
        assert t.fastest == 1.0
        assert t.slowest == 4.0

    def test_slow_writer_ranks(self):
        t = self.make([1.0, 1.0, 1.0, 5.0])
        assert t.slow_writer_ranks(factor=2.0) == [3]

    def test_n_writers(self):
        assert self.make([1, 2, 3]).n_writers == 3
