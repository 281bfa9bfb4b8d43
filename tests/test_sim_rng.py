"""Unit tests for named RNG streams."""

import numpy as np
import pytest

from repro.sim import RngRegistry


class TestRngRegistry:
    def test_same_name_same_stream_object(self):
        r = RngRegistry(seed=1)
        assert r.get("a") is r.get("a")

    def test_different_names_independent(self):
        r = RngRegistry(seed=1)
        a = r.get("a").random(100)
        b = r.get("b").random(100)
        assert not np.allclose(a, b)

    def test_reproducible_across_registries(self):
        x = RngRegistry(seed=42).get("ost.noise").random(10)
        y = RngRegistry(seed=42).get("ost.noise").random(10)
        assert np.array_equal(x, y)

    def test_seed_changes_stream(self):
        x = RngRegistry(seed=1).get("s").random(10)
        y = RngRegistry(seed=2).get("s").random(10)
        assert not np.array_equal(x, y)

    def test_non_int_seed_rejected(self):
        with pytest.raises(TypeError):
            RngRegistry(seed="abc")

    def test_insertion_order_does_not_matter(self):
        r1 = RngRegistry(seed=9)
        r1.get("first")
        v1 = r1.get("second").random(4)
        r2 = RngRegistry(seed=9)
        v2 = r2.get("second").random(4)
        assert np.array_equal(v1, v2)
