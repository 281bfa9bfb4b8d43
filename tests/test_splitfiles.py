"""Tests for the split-files transport (paper Section II-3 alternative)."""

import pytest

from repro.apps import AppKernel, Variable
from repro.core.transports import (
    MpiIoTransport,
    SplitFilesTransport,
)
from repro.machines import jaguar
from repro.units import MB


def app(mb=4.0):
    return AppKernel(
        "t", [Variable("x", shape=(int(mb * MB / 8),))]
    )


class TestSplitFiles:
    def test_default_file_count_covers_pool(self):
        # pool 16, cap 4 -> 4 files
        spec = jaguar(n_osts=16).with_overrides(max_stripe_count=4)
        m = spec.build(n_ranks=16, seed=0)
        res = SplitFilesTransport().run(m, app(), output_name="o")
        assert res.extra["n_files"] == 4.0
        assert len(res.files) == 4

    def test_all_targets_reached(self):
        spec = jaguar(n_osts=16).with_overrides(max_stripe_count=4)
        m = spec.build(n_ranks=32, seed=0)
        res = SplitFilesTransport().run(m, app(), output_name="o")
        used = set()
        for path in res.files:
            used.update(m.fs.lookup(path).layout.osts)
        assert len(used) == 16  # the whole pool, vs 4 for one file

    def test_index_complete(self):
        m = jaguar(n_osts=8).build(n_ranks=8, seed=0)
        res = SplitFilesTransport().run(m, app(), output_name="o")
        assert res.index.n_blocks == 8

    def test_beats_capped_single_file_when_drain_bound(self):
        """The paper's rationale: 5 files reach 672 targets, 1 file
        reaches 160."""
        big = app(mb=64.0)
        spec = jaguar(n_osts=16).with_overrides(max_stripe_count=4)
        m1 = spec.build(n_ranks=64, seed=1)
        r_one = MpiIoTransport(build_index=False).run(m1, big,
                                                      output_name="o")
        m2 = spec.build(n_ranks=64, seed=1)
        r_split = SplitFilesTransport(build_index=False).run(
            m2, big, output_name="o"
        )
        assert r_split.aggregate_bandwidth > r_one.aggregate_bandwidth
