"""Unit tests for machine specs and build."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.machines import franklin, jaguar, xtp
from repro.units import MB


class TestSpecs:
    def test_jaguar_paper_facts(self):
        spec = jaguar()
        assert spec.n_osts == 672
        assert spec.max_stripe_count == 160
        assert spec.cores_per_node == 12
        assert spec.max_cores == 224_160
        assert spec.ost_config.drain_peak == pytest.approx(180 * MB)

    def test_franklin_paper_facts(self):
        spec = franklin()
        assert spec.n_osts == 96
        assert spec.max_cores == 38_128

    def test_xtp_paper_facts(self):
        spec = xtp()
        assert spec.n_osts == 40
        assert spec.max_cores == 1_920
        # PanFS has no 160-target cap; a file can span all blades.
        assert spec.max_stripe_count == 40

    def test_xtp_flat_interference(self):
        """XTP's curve must lose <5% from ~13 to ~26 streams/blade —
        the paper's 512->1024 writer observation."""
        spec = xtp()
        curve = spec.ost_config.drain_curve
        drop = 1 - curve.at(25.6) / curve.at(12.8)
        assert 0 <= drop < 0.05

    def test_jaguar_steep_interference(self):
        spec = jaguar()
        curve = spec.ost_config.drain_curve
        # 16 -> 32 streams per OST must lose roughly 16-28% aggregate.
        drop = 1 - curve.at(32) / curve.at(16)
        assert 0.10 < drop < 0.35

    def test_with_overrides(self):
        small = jaguar().with_overrides(max_stripe_count=8)
        assert small.max_stripe_count == 8
        assert jaguar().max_stripe_count == 160

    @pytest.mark.parametrize("name, value", [
        ("nic_bandwidth", np.nan), ("nic_bandwidth", 0.0),
        ("default_stripe_size", np.nan), ("default_stripe_size", -1.0),
        ("per_stream_cap", np.nan),
        ("mds_mean_service_time", np.nan), ("mds_mean_service_time", 0.0),
    ])
    def test_nan_or_nonpositive_physics_rejected(self, name, value):
        with pytest.raises(ConfigurationError, match=name):
            jaguar(n_osts=4).with_overrides(**{name: value})


class TestBuild:
    def test_build_produces_live_machine(self):
        m = jaguar(n_osts=8).build(n_ranks=24, seed=1)
        assert m.n_ranks == 24
        assert m.n_osts == 8
        assert m.topology.n_nodes == 2
        assert m.fs.n_osts == 8
        assert m.node_of(13) == 1

    def test_build_rejects_oversubscription(self):
        with pytest.raises(ConfigurationError):
            xtp().build(n_ranks=10_000)

    def test_build_rejects_zero_ranks(self):
        with pytest.raises(ConfigurationError):
            jaguar().build(n_ranks=0)

    @pytest.mark.parametrize("opts, name", [
        ({"n_ranks": 16.5}, "n_ranks"),
        ({"n_ranks": 16, "extra_service_nodes": 1.5}, "extra_service_nodes"),
    ])
    def test_build_rejects_non_integer_sizes(self, opts, name):
        with pytest.raises(ConfigurationError,
                           match=f"{name} must be an integer"):
            jaguar(n_osts=4).build(**opts)

    def test_build_accepts_numpy_integer_sizes(self):
        m = jaguar(n_osts=np.int64(4)).build(
            n_ranks=np.int64(16), extra_service_nodes=np.int32(1))
        assert m.n_ranks == 16 and m.n_osts == 4

    def test_builds_are_independent(self):
        a = jaguar(n_osts=4).build(n_ranks=4, seed=1)
        b = jaguar(n_osts=4).build(n_ranks=4, seed=1)
        assert a.env is not b.env
        assert a.pool is not b.pool

    def test_seeded_rngs_reproducible(self):
        a = jaguar(n_osts=4).build(n_ranks=4, seed=9)
        b = jaguar(n_osts=4).build(n_ranks=4, seed=9)
        assert a.rngs.get("x").random(3).tolist() == \
            b.rngs.get("x").random(3).tolist()
