"""Incremental bookkeeping in the flow network.

PR-level invariants for the hot-path optimizations: the per-sink /
per-source stream counts the network maintains incrementally must
always equal what an ``np.bincount`` over the active flows would
re-derive; the allocator (one routine: a per-sink waterfill round, then
progressive-filling rounds when a source saturates) must match a
textbook progressive-filling reference, and precomputed counts must
not change its output; and the skip-reallocation path must fire
exactly when nothing changed.  ``tests/test_maxmin_goldens.py`` pins
the same allocator bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.fabric import (
    FlowNetwork,
    UniformSinkPool,
    max_min_fair_rates,
)
from repro.sim import Environment


def _random_case(rng, n_flows, n_src, n_dst, finite_caps=True):
    src = rng.integers(0, n_src, n_flows)
    dst = rng.integers(0, n_dst, n_flows)
    cap_src = rng.uniform(1e8, 2e9, n_src)
    cap_dst = rng.uniform(1e7, 5e8, n_dst)
    fcap = rng.uniform(1e6, 3e8, n_flows)
    if not finite_caps:
        cap_src[rng.random(n_src) < 0.2] = np.inf
        fcap[rng.random(n_flows) < 0.2] = np.inf
    return src, dst, cap_src, cap_dst, fcap


def _reference_max_min(src, dst, cap_src, cap_dst, flow_cap):
    """Straightforward progressive filling, one bincount per round.

    Deliberately the textbook O(rounds x flows) formulation the
    optimized allocator replaced — the ground truth it must match.
    """
    n = len(src)
    rates = np.zeros(n)
    live = np.ones(n, dtype=bool)
    res_s = cap_src.astype(np.float64).copy()
    res_d = cap_dst.astype(np.float64).copy()
    finite = np.concatenate(
        [cap_src[np.isfinite(cap_src)], cap_dst[np.isfinite(cap_dst)]]
    )
    tol = 1e-12 * max(float(finite.max()) if finite.size else 1.0, 1.0)
    level = 0.0
    for _ in range(n + 2):
        if not live.any():
            break
        cs = np.bincount(src[live], minlength=len(cap_src))
        cd = np.bincount(dst[live], minlength=len(cap_dst))
        candidates = [float((flow_cap[live] - level).min())]
        if (cs > 0).any():
            candidates.append(float((res_s[cs > 0] / cs[cs > 0]).min()))
        if (cd > 0).any():
            candidates.append(float((res_d[cd > 0] / cd[cd > 0]).min()))
        inc = min(candidates)
        if not np.isfinite(inc):
            rates[live] = np.minimum(flow_cap[live], 1e18)
            break
        inc = max(inc, 0.0)
        level += inc
        res_s -= inc * cs
        res_d -= inc * cd
        sat_s = res_s <= tol
        sat_d = res_d <= tol
        frozen = live & (
            sat_s[src] | sat_d[dst] | (flow_cap - level <= tol)
        )
        if not frozen.any():
            frozen = live.copy()
        rates[frozen] = np.minimum(level, flow_cap[frozen])
        live &= ~frozen
    return rates


class TestAllocatorEquivalence:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_reference(self, seed):
        rng = np.random.default_rng(seed)
        n_flows = int(rng.integers(1, 400))
        src, dst, cs, cd, fcap = _random_case(rng, n_flows, 24, 12)
        got = max_min_fair_rates(src, dst, cs, cd, fcap)
        want = _reference_max_min(src, dst, cs, cd, fcap)
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-3)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_reference_with_inf_caps(self, seed):
        rng = np.random.default_rng(100 + seed)
        n_flows = int(rng.integers(1, 200))
        src, dst, cs, cd, fcap = _random_case(
            rng, n_flows, 16, 8, finite_caps=False
        )
        got = max_min_fair_rates(src, dst, cs, cd, fcap)
        want = _reference_max_min(src, dst, cs, cd, fcap)
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-3)

    @pytest.mark.parametrize("seed", range(6))
    def test_precomputed_counts_change_nothing(self, seed):
        rng = np.random.default_rng(200 + seed)
        n_flows = int(rng.integers(1, 300))
        src, dst, cs, cd, fcap = _random_case(rng, n_flows, 24, 12)
        plain = max_min_fair_rates(src, dst, cs, cd, fcap)
        counted = max_min_fair_rates(
            src, dst, cs, cd, fcap,
            counts_src=np.bincount(src, minlength=24),
            counts_dst=np.bincount(dst, minlength=12),
        )
        # Same code path, same arithmetic: exact equality required.
        assert (plain == counted).all()

    def test_single_bottleneck_fast_path(self):
        # 100 identical flows into one sink: one filling round.
        n = 100
        src = np.arange(n) % 10
        dst = np.zeros(n, dtype=np.int64)
        rates = max_min_fair_rates(
            src, dst, np.full(10, 1e9), np.array([1e8]),
            np.full(n, np.inf),
        )
        np.testing.assert_allclose(rates, 1e8 / n, rtol=1e-12)

    def test_flow_cap_only(self):
        rates = max_min_fair_rates(
            np.zeros(4, dtype=np.int64),
            np.zeros(4, dtype=np.int64),
            np.array([np.inf]),
            np.array([np.inf]),
            np.full(4, 7.5),
        )
        np.testing.assert_allclose(rates, 7.5)


def _drain(out):
    def _cb(ev):
        out.append(ev)

    return _cb


class TestIncrementalCounts:
    def _assert_counts_consistent(self, net):
        act = net._active.copy()
        want_dst = np.bincount(
            net._dst[act], minlength=net.n_sinks
        )
        want_src = np.bincount(
            net._src[act], minlength=net.n_sources
        )
        assert (net._counts == want_dst).all(), (
            f"sink counts drifted: {net._counts} != {want_dst}"
        )
        assert (net._src_counts == want_src).all(), (
            f"source counts drifted: {net._src_counts} != {want_src}"
        )

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_counts_match_bincount_under_churn(self, seed):
        """Randomized start / cancel / run-to-completion sequences."""
        rng = np.random.default_rng(seed)
        env = Environment()
        pool = UniformSinkPool(5, 100.0)
        net = FlowNetwork(env, np.full(4, 1e3), pool)
        open_ids = []
        for _ in range(40):
            op = rng.random()
            if op < 0.5 or not open_ids:
                ev = net.start_flow(
                    int(rng.integers(0, 4)),
                    int(rng.integers(0, 5)),
                    float(rng.uniform(10.0, 500.0)),
                )
                ev.add_callback(lambda e: None)
                open_ids.append(net._next_id - 1)
            elif op < 0.75:
                fid = open_ids.pop(int(rng.integers(0, len(open_ids))))
                if fid in net._slot_of:
                    net.cancel_flow(fid)
            else:
                # Let time pass so some flows complete naturally.
                horizon = env.now + float(rng.uniform(0.1, 3.0))
                env.run(until=env.timeout(horizon - env.now))
                open_ids = [f for f in open_ids if f in net._slot_of]
            self._assert_counts_consistent(net)
        env.run()
        self._assert_counts_consistent(net)
        assert net.active_flow_count == 0
        assert net._counts.sum() == 0
        assert net._src_counts.sum() == 0


class _MutablePool(UniformSinkPool):
    """Uniform pool whose capacity can be changed out-of-band."""

    def set_capacity(self, capacity: float) -> None:
        self._caps = np.full(self.n_sinks, float(capacity))


class TestSkipReallocation:
    def test_quiescent_settles_skip_the_allocator(self):
        env = Environment()
        net = FlowNetwork(env, np.full(2, 1e3), UniformSinkPool(2, 100.0))
        net.start_flow(0, 0, 1e6)
        net.start_flow(1, 1, 1e6)
        net.invalidate()  # fold the deferred settle; allocation current
        base = net.realloc_count
        for _ in range(10):
            net.invalidate()
        assert net.realloc_count == base  # nothing changed, no realloc

    def test_flow_arrival_forces_reallocation(self):
        env = Environment()
        net = FlowNetwork(env, np.full(2, 1e3), UniformSinkPool(2, 100.0))
        net.start_flow(0, 0, 1e6)
        net.invalidate()
        base = net.realloc_count
        net.start_flow(1, 0, 1e6)
        net.invalidate()  # flush the deferred settle for the arrival
        assert net.realloc_count == base + 1

    def test_capacity_change_forces_reallocation(self):
        env = Environment()
        pool = _MutablePool(2, 100.0)
        net = FlowNetwork(env, np.full(2, 1e3), pool)
        net.start_flow(0, 0, 1e9)
        net.invalidate()
        base = net.realloc_count
        rate_before = float(net._rate[net._active][0])
        pool.set_capacity(50.0)
        net.invalidate()
        assert net.realloc_count == base + 1
        rate_after = float(net._rate[net._active][0])
        assert rate_after == pytest.approx(50.0)
        assert rate_before == pytest.approx(100.0)

    def test_skipped_settle_preserves_rates(self):
        env = Environment()
        net = FlowNetwork(env, np.full(3, 1e3), UniformSinkPool(1, 90.0))
        for i in range(3):
            net.start_flow(i, 0, 1e9)
        net.invalidate()  # fold the deferred settle; rates now assigned
        rates = net._rate[net._active].copy()
        for _ in range(5):
            net.invalidate()
        assert (net._rate[net._active] == rates).all()
        np.testing.assert_allclose(rates, 30.0)


def _assert_slots_consistent(net):
    """Counts, free list and the fid <-> slot columns agree exactly,
    and only live slots keep a flow event."""
    act = net._active.nonzero()[0]
    assert (net._counts == np.bincount(
        net._dst[act], minlength=net.n_sinks)).all()
    assert (net._src_counts == np.bincount(
        net._src[act], minlength=net.n_sources)).all()
    free = net._free
    assert len(set(free)) == len(free), "a slot was freed twice"
    assert set(free) == set(range(len(net._active))) - set(act.tolist())
    assert net._slot_of == {int(net._fid[s]): int(s) for s in act}
    assert net.active_flow_count == act.size
    held = [s for s, ev in enumerate(net._events) if ev is not None]
    assert held == act.tolist()


class TestColumnarCompletion:
    def _net(self, n_sinks=6, n_src=4):
        env = Environment()
        return env, FlowNetwork(
            env, np.full(n_src, 1e3), UniformSinkPool(n_sinks, 100.0)
        )

    def test_same_instant_completions_fire_in_slot_order(self):
        env, net = self._net()
        # Churn the free list so slot order differs from flow-id order.
        fids = [net.start_flow_with_id(0, i, 1e9)[1] for i in range(6)]
        for fid in (fids[1], fids[4], fids[2]):
            net.cancel_flow(fid)
        fired = []
        for sink in (1, 2, 4):  # equal bytes, equal rates: same instant
            ev, fid = net.start_flow_with_id(1, sink, 50.0)
            ev.add_callback(lambda e: fired.append(e.value))
        slot_of = dict(net._slot_of)
        for fid in (fids[0], fids[3], fids[5]):
            net.cancel_flow(fid)
        env.run()
        assert len({stats.end_time for stats in fired}) == 1
        fired = [stats.flow_id for stats in fired]
        assert len(fired) == 3
        assert fired == sorted(fired, key=slot_of.__getitem__)
        assert fired != sorted(fired)  # the order is by slot, not id
        _assert_slots_consistent(net)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_vectorized_completion_keeps_counts_and_free_list(self, seed):
        """Batches of flows finishing together, interleaved with starts,
        cancels and sink failures."""
        rng = np.random.default_rng(seed)
        env, net = self._net()
        done = []
        for _ in range(30):
            op = rng.random()
            if op < 0.6 or not net._slot_of:
                size = float(rng.choice([40.0, 80.0, rng.uniform(10, 400)]))
                for _ in range(int(rng.integers(1, 5))):
                    ev = net.start_flow(int(rng.integers(0, 4)),
                                        int(rng.integers(0, 6)), size)
                    ev.add_callback(done.append)
            elif op < 0.75:
                net.cancel_flow(int(rng.choice(list(net._slot_of))))
            elif op < 0.8:
                net.fail_sink(int(rng.integers(0, 6)))
            else:
                env.run(until=env.now + float(rng.uniform(0.1, 2.0)))
            _assert_slots_consistent(net)
        env.run()
        _assert_slots_consistent(net)
        assert net.active_flow_count == 0


class TestWatcherOrder:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_callbacks_fire_in_registration_order(self, seed):
        """Watch / unwatch / re-watch churn against a dict model: a
        re-watch keeps its place, an unwatch + watch moves to the end,
        and every settle notifies changed flows in model order."""
        rng = np.random.default_rng(seed)
        env = Environment()
        net = FlowNetwork(env, np.full(8, 1e6), UniformSinkPool(3, 120.0))
        fids = [net.start_flow_with_id(i % 8, i % 3, 1e9)[1]
                for i in range(24)]
        net.invalidate()
        model = {}  # fid -> tag, in registration order
        calls = []

        def watcher(fid, tag):
            return lambda now, rate: calls.append((fid, tag, rate))

        for step in range(12):
            for _ in range(int(rng.integers(1, 10))):
                fid = int(rng.choice(fids))
                if rng.random() < 0.6:
                    model[fid] = step
                    net.watch_flow(fid, watcher(fid, step))
                else:
                    model.pop(fid, None)
                    net.unwatch_flow(fid)
            before = {f: float(net._rate[net._slot_of[f]]) for f in model}
            calls.clear()
            # A flow arriving at one sink changes that sink's share.
            net.start_flow(int(rng.integers(0, 8)), int(rng.integers(0, 3)),
                           1e9)
            net.invalidate()
            expect = [
                (f, model[f], float(net._rate[net._slot_of[f]]))
                for f in model
                if float(net._rate[net._slot_of[f]]) != before[f]
            ]
            assert calls == expect
            assert len(net._watchers) == len(model)

    def test_order_survives_compaction_and_rewatch_in_callback(self):
        env = Environment()
        net = FlowNetwork(env, np.full(8, 1e6), UniformSinkPool(2, 120.0))
        fids = [net.start_flow_with_id(i, 0, 1e9)[1] for i in range(8)]
        net.invalidate()
        calls = []

        def watcher(tag):
            return lambda now, rate: calls.append(tag)

        for fid in reversed(fids):
            net.watch_flow(fid, watcher(fid))
        for fid in fids[2:7]:  # five holes, three live: compacts
            net.unwatch_flow(fid)
        net.watch_flow(fids[2], watcher(fids[2]))  # back, at the end
        net.start_flow(0, 0, 1e9)
        net.invalidate()
        assert calls == [fids[7], fids[1], fids[0], fids[2]]
        assert len(net._w_fid) == len(net._watchers) == 4

        # A callback that unwatches and re-watches a later flow: that
        # flow is still notified at its old place in this settle (with
        # its new callback) and sits at the end from then on.
        def rewatch(now, rate):
            calls.append("rewatch")
            net.unwatch_flow(fids[0])
            net.watch_flow(fids[0], watcher("new"))

        net.watch_flow(fids[7], rewatch)
        calls.clear()
        net.start_flow(1, 0, 1e9)
        net.invalidate()
        assert calls == ["rewatch", fids[1], "new", fids[2]]
        calls.clear()
        net.start_flow(2, 0, 1e9)
        net.invalidate()
        assert calls == ["rewatch", fids[1], fids[2], "new"]
