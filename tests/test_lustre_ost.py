"""Unit tests for the OST pool: caches, efficiency curves, load."""

import numpy as np
import pytest

from repro.lustre.ost import (
    EfficiencyCurve,
    OstPool,
    OstPoolConfig,
    lustre_drain_curve,
    lustre_ingest_curve,
)
from repro.sim.engine import Environment


class TestEfficiencyCurve:
    def test_exact_control_points(self):
        c = EfficiencyCurve([(1, 0.5), (4, 1.0), (16, 0.8)])
        assert c.at(1) == pytest.approx(0.5)
        assert c.at(4) == pytest.approx(1.0)
        assert c.at(16) == pytest.approx(0.8)

    def test_log_interpolation(self):
        c = EfficiencyCurve([(1, 0.5), (4, 1.0)])
        assert c.at(2) == pytest.approx(0.75)

    def test_flat_extrapolation(self):
        c = EfficiencyCurve([(2, 0.9), (8, 0.6)])
        assert c.at(1) == pytest.approx(0.9)
        assert c.at(1000) == pytest.approx(0.6)

    def test_vectorized(self):
        c = EfficiencyCurve([(1, 1.0), (16, 0.5)])
        out = c(np.array([1, 4, 16]))
        assert out.shape == (3,)
        assert out[0] == pytest.approx(1.0)
        assert out[2] == pytest.approx(0.5)

    def test_zero_count_treated_as_one(self):
        c = EfficiencyCurve([(1, 0.7), (4, 1.0)])
        assert c(np.array([0]))[0] == pytest.approx(0.7)

    def test_validation(self):
        with pytest.raises(ValueError):
            EfficiencyCurve([])
        with pytest.raises(ValueError):
            EfficiencyCurve([(0, 1.0)])
        with pytest.raises(ValueError):
            EfficiencyCurve([(1, 0.0)])
        with pytest.raises(ValueError):
            EfficiencyCurve([(1, 0.5), (1, 0.6)])

    def test_default_curves_sane(self):
        drain = lustre_drain_curve()
        # single stream below peak, small multiples at peak, heavy
        # concurrency degrades — the Fig. 1 shape.
        assert drain.at(1) < drain.at(4)
        assert drain.at(4) == pytest.approx(1.0)
        assert drain.at(32) < drain.at(8)
        ingest = lustre_ingest_curve()
        # RPC pipelining: slight rise to a plateau, decline only under
        # extreme request pressure.
        assert ingest.at(1) < ingest.at(16)
        assert ingest.at(16) == pytest.approx(1.0)
        assert ingest.at(512) < 0.9


class TestOstPoolConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            OstPoolConfig(n_osts=0)
        with pytest.raises(ValueError):
            OstPoolConfig(n_osts=1, drain_peak=-1)
        with pytest.raises(ValueError):
            OstPoolConfig(n_osts=1, drain_peak=100, ingest_peak=50)

    def test_n_osts_must_be_an_integer(self):
        with pytest.raises(ValueError, match="n_osts must be an integer"):
            OstPoolConfig(n_osts=4.5)
        assert OstPoolConfig(n_osts=np.int64(4)).n_osts == 4


def make_pool(n=2, drain=100.0, ingest=200.0, cache=1000.0):
    flat = EfficiencyCurve([(1, 1.0)])
    cfg = OstPoolConfig(
        n_osts=n,
        drain_peak=drain,
        ingest_peak=ingest,
        cache_capacity=cache,
        drain_curve=flat,
        ingest_curve=flat,
    )
    return OstPool(cfg)


class TestOstPoolDynamics:
    def test_empty_cache_reports_ingest_capacity(self):
        pool = make_pool()
        caps = pool.capacities(np.array([1, 0]), 0.0)
        assert caps[0] == pytest.approx(200.0)

    def test_cache_fills_then_capacity_drops_to_drain(self):
        pool = make_pool()
        counts = np.array([1, 0])
        pool.capacities(counts, 0.0)
        # Ingest 200 B/s, drain 100 B/s -> net fill 100 B/s; cache 1000 B
        t = pool.next_transition(np.array([200.0, 0.0]), counts, 0.0)
        assert t == pytest.approx(10.0)
        pool.advance(10.0, np.array([200.0, 0.0]), 10.0)
        assert pool.cache_level[0] == pytest.approx(1000.0)
        caps = pool.capacities(counts, 10.0)
        assert caps[0] == pytest.approx(100.0)  # drain-limited now

    def test_hysteresis_restores_ingest(self):
        pool = make_pool()
        counts = np.array([1, 0])
        pool.capacities(counts, 0.0)
        pool.advance(10.0, np.array([200.0, 0.0]), 10.0)
        pool.capacities(counts, 10.0)
        assert pool.is_full()[0]
        # Now inflow stops; cache drains at 100 B/s; threshold 95%.
        t = pool.next_transition(np.array([0.0, 0.0]), counts, 10.0)
        assert t == pytest.approx(0.5)  # 50 bytes to drain below 950
        pool.advance(0.5, np.array([0.0, 0.0]), 10.5)
        caps = pool.capacities(counts, 10.5)
        assert not pool.is_full()[0]
        assert caps[0] == pytest.approx(200.0)

    def test_drained_accounting_conserves_bytes(self):
        pool = make_pool()
        inflow = np.array([150.0, 0.0])
        pool.capacities(np.array([1, 0]), 0.0)
        pool.advance(4.0, inflow, 4.0)
        absorbed = pool.bytes_absorbed[0]
        drained = pool.bytes_drained[0]
        level = pool.cache_level[0]
        assert absorbed == pytest.approx(600.0)
        assert absorbed == pytest.approx(drained + level)

    def test_cache_never_negative(self):
        pool = make_pool()
        pool.capacities(np.array([1, 0]), 0.0)
        pool.advance(100.0, np.zeros(2), 100.0)
        assert (pool.cache_level >= 0).all()

    def test_load_multiplier_scales_capacity(self):
        pool = make_pool(cache=0.0)  # cache-less: always drain-limited
        pool.set_load_multiplier(0.5, osts=np.array([0]))
        caps = pool.capacities(np.array([1, 1]), 0.0)
        assert caps[0] == pytest.approx(50.0)
        assert caps[1] == pytest.approx(100.0)

    def test_load_multiplier_invalid(self):
        pool = make_pool()
        with pytest.raises(ValueError):
            pool.set_load_multiplier(0.0)
        with pytest.raises(ValueError):
            pool.set_load_multiplier(2.0)

    @pytest.mark.parametrize("osts", [None, np.array([1])])
    @pytest.mark.parametrize("bad", [
        {"mult": np.nan},
        {"mult": 0.5, "ingest_mult": np.nan},
        {"mult": 2.0},
        {"mult": 0.5, "ingest_mult": 1.5},
        {"mult": 0.0},
    ])
    def test_rejected_multiplier_leaves_pool_unchanged(self, osts, bad):
        pool = make_pool()
        pool.set_load_multiplier(0.9, osts=np.array([0]))
        load, ingest = pool.load_mult.copy(), pool.ingest_mult.copy()
        hits = []
        pool.bind(Environment(), lambda: hits.append(1))
        with pytest.raises(ValueError):
            pool.set_load_multiplier(osts=osts, **bad)
        assert np.array_equal(pool.load_mult, load)
        assert np.array_equal(pool.ingest_mult, ingest)
        assert hits == []

    @pytest.mark.parametrize("osts", [None, np.array([0, 1])])
    def test_rejected_multiplier_array_leaves_pool_unchanged(self, osts):
        pool = make_pool()
        before = (pool.load_mult.copy(), pool.ingest_mult.copy())
        for bad in (
            {"mult": np.array([0.5, np.nan])},
            {"mult": np.array([0.5, 0.5]),
             "ingest_mult": np.array([np.nan, 0.5])},
            {"mult": np.array([0.5, 2.0])},
            {"mult": np.array([0.5, 0.5]),
             "ingest_mult": np.array([0.5, 0.5, 0.5])},
        ):
            with pytest.raises(ValueError):
                pool.set_load_multiplier(osts=osts, **bad)
            assert np.array_equal(pool.load_mult, before[0])
            assert np.array_equal(pool.ingest_mult, before[1])

    def test_load_multiplier_triggers_callback(self):
        pool = make_pool()
        hits = []
        pool.bind(Environment(), lambda: hits.append(1))
        pool.set_load_multiplier(0.8)
        assert hits == [1]

    def test_no_transition_when_idle_and_not_full(self):
        pool = make_pool()
        counts = np.zeros(2, dtype=int)
        pool.capacities(counts, 0.0)
        t = pool.next_transition(np.zeros(2), counts, 0.0)
        assert t == float("inf")

    def test_efficiency_applied_to_drain(self):
        cfg = OstPoolConfig(
            n_osts=1,
            drain_peak=100.0,
            ingest_peak=200.0,
            cache_capacity=0.0,
            drain_curve=EfficiencyCurve([(1, 0.5), (4, 1.0)]),
            ingest_curve=EfficiencyCurve([(1, 1.0)]),
        )
        pool = OstPool(cfg)
        assert pool.capacities(np.array([1]), 0.0)[0] == pytest.approx(50.0)
        assert pool.capacities(np.array([4]), 0.0)[0] == pytest.approx(100.0)

    def test_summary(self):
        pool = make_pool()
        s = pool.summary()
        assert s["n_osts"] == 2
        assert s["mean_load_mult"] == pytest.approx(1.0)


class _ScratchPool(OstPool):
    """The pool's formulas evaluated from scratch on every call: full
    curve evaluations over all sinks, no memo, and the transition time
    as the minimum over a full-size vector."""

    def _scratch_rates(self, counts):
        cfg = self.config
        n = np.maximum(counts, 1)
        drain = (cfg.drain_peak * cfg.drain_curve(n)
                 * self.load_mult * self.fault_mult)
        ingest = (cfg.ingest_peak * cfg.ingest_curve(n)
                  * self.ingest_mult * self._ingest_gate)
        return drain, ingest

    def advance(self, dt, inflow, now):
        if dt <= 0:
            return
        drain, _ = self._scratch_rates(self._last_counts)
        absorbed = inflow * dt
        self.bytes_absorbed += absorbed
        before = self.cache_level.copy()
        self.cache_level += absorbed - drain * dt
        np.clip(self.cache_level, 0.0, self.config.cache_capacity,
                out=self.cache_level)
        self.bytes_drained += absorbed + before - self.cache_level

    def capacities(self, counts, now):
        self._last_counts = np.array(counts)
        cap = self.config.cache_capacity
        self._full |= self.cache_level >= cap - 1.0
        self._full &= self.cache_level > self.config.hysteresis * cap + 1.0
        drain, ingest = self._scratch_rates(counts)
        return np.where(self._full, np.minimum(drain, ingest), ingest)

    def next_transition(self, inflow, counts, now):
        cap = self.config.cache_capacity
        drain, _ = self._scratch_rates(counts)
        net = inflow - drain
        t = np.full(self.n_sinks, np.inf)
        filling = ~self._full & (net > 0)
        t[filling] = (cap - self.cache_level[filling]) / net[filling]
        emptying = self._full & (net < 0)
        target = self.config.hysteresis * cap
        t[emptying] = (self.cache_level[emptying] - target) / -net[emptying]
        return max(float(t.min()), 0.0)


class TestCachedPoolEquivalence:
    N = 24

    def _pools(self):
        cfg = OstPoolConfig(n_osts=self.N, cache_capacity=64.0 * 2**20)
        return OstPool(cfg), _ScratchPool(cfg)

    @pytest.mark.parametrize("seed", range(8))
    def test_cached_pool_matches_scratch_evaluation(self, seed):
        """Random count changes (a few sinks: the scalar patch; many:
        the vectorized one), multiplier pushes, fault transitions and
        cache fill/drain cycles: capacities, transition times and cache
        state agree with ``==`` at every step."""
        rng = np.random.default_rng(seed)
        pool, ref = self._pools()
        counts = np.zeros(self.N, dtype=np.int64)
        snapshot = counts.copy()
        now = 0.0
        n_full = []
        for step in range(300):
            op = rng.random()
            if op < 0.45:
                k = int(rng.choice([1, 2, 3, self.N // 2, self.N]))
                idx = rng.choice(self.N, size=k, replace=False)
                counts[idx] = rng.integers(0, 300, size=k)
                if rng.random() < 0.7:  # the fabric: a read-only snapshot
                    snapshot = counts.copy()
                    snapshot.flags.writeable = False
                else:  # a caller mutating one writeable array in place
                    if not snapshot.flags.writeable:
                        snapshot = counts.copy()
                    snapshot[:] = counts
            elif op < 0.6:
                mult = rng.uniform(0.1, 1.0, self.N)
                osts = (None if rng.random() < 0.5
                        else rng.choice(self.N, size=3, replace=False))
                m = mult if osts is None else mult[:3]
                ingest = None if rng.random() < 0.5 else np.sqrt(m)
                for p in (pool, ref):
                    p.set_load_multiplier(m, osts=osts, ingest_mult=ingest)
            elif op < 0.7:
                ost = int(rng.integers(0, self.N))
                kind = rng.choice(["fail", "hang", "brownout", "recover"])
                for p in (pool, ref):
                    if kind == "fail":
                        p.fail_ost(ost)
                    elif kind == "hang":
                        p.hang_ost(ost)
                    elif kind == "brownout":
                        p.brownout_ost(ost, 0.3)
                    else:
                        p.recover_ost(ost)
            caps = pool.capacities(snapshot, now)
            assert np.array_equal(caps, ref.capacities(snapshot, now))
            assert np.array_equal(pool.is_full(), ref.is_full())
            n_full.append(int(pool.is_full().sum()))
            inflow = caps * rng.uniform(0.5, 1.0, self.N) * (snapshot > 0)
            t = pool.next_transition(inflow, snapshot, now)
            assert t == ref.next_transition(inflow, snapshot, now)
            dt = t if (rng.random() < 0.3 and t < 10.0) else float(
                rng.exponential(0.2))
            now += dt
            pool.advance(dt, inflow, now)
            ref.advance(dt, inflow, now)
            for name in ("cache_level", "bytes_absorbed", "bytes_drained"):
                assert np.array_equal(getattr(pool, name),
                                      getattr(ref, name)), (step, name)
            assert np.array_equal(pool.drain_rates(),
                                  ref._scratch_rates(ref._last_counts)[0])
        # The run must have filled caches and drained them back out.
        assert max(n_full) > 0
        assert any(b < a for a, b in zip(n_full, n_full[1:]))
