"""Unit tests for the max-min fair flow network."""

import warnings

import numpy as np
import pytest

from repro.sim import Environment
from repro.net import FlowNetwork, UniformSinkPool
from repro.net.fabric import max_min_fair_rates


class TestMaxMinAllocation:
    def test_single_flow_gets_bottleneck(self):
        rates = max_min_fair_rates(
            np.array([0]), np.array([0]), np.array([100.0]), np.array([40.0])
        )
        assert rates[0] == pytest.approx(40.0)

    def test_equal_split_on_shared_sink(self):
        rates = max_min_fair_rates(
            np.array([0, 1]),
            np.array([0, 0]),
            np.array([100.0, 100.0]),
            np.array([60.0]),
        )
        assert np.allclose(rates, [30.0, 30.0])

    def test_max_min_not_just_equal_share(self):
        # Flows: A on (src0 -> dst0), B on (src0 -> dst1), C on (src1 -> dst1)
        # src0 cap 10, dst1 cap 4, rest huge. Max-min: B and C split dst1
        # at 2 each; A then takes src0's leftover 8.
        rates = max_min_fair_rates(
            np.array([0, 0, 1]),
            np.array([0, 1, 1]),
            np.array([10.0, 100.0]),
            np.array([100.0, 4.0]),
        )
        assert rates[1] == pytest.approx(2.0)
        assert rates[2] == pytest.approx(2.0)
        assert rates[0] == pytest.approx(8.0)

    def test_flow_cap_respected(self):
        rates = max_min_fair_rates(
            np.array([0, 1]),
            np.array([0, 0]),
            np.array([100.0, 100.0]),
            np.array([60.0]),
            flow_cap=np.array([10.0, np.inf]),
        )
        assert rates[0] == pytest.approx(10.0)
        assert rates[1] == pytest.approx(50.0)

    def test_no_flows(self):
        rates = max_min_fair_rates(
            np.zeros(0, dtype=int), np.zeros(0, dtype=int),
            np.array([1.0]), np.array([1.0]),
        )
        assert rates.size == 0

    def test_conservation(self):
        """Allocated inflow never exceeds any capacity."""
        rng = np.random.default_rng(3)
        for _ in range(20):
            f = rng.integers(1, 40)
            s, d = rng.integers(2, 6), rng.integers(2, 6)
            src = rng.integers(0, s, f)
            dst = rng.integers(0, d, f)
            cs = rng.uniform(1, 100, s)
            cd = rng.uniform(1, 100, d)
            rates = max_min_fair_rates(src, dst, cs, cd)
            per_src = np.bincount(src, weights=rates, minlength=s)
            per_dst = np.bincount(dst, weights=rates, minlength=d)
            assert (per_src <= cs * (1 + 1e-9)).all()
            assert (per_dst <= cd * (1 + 1e-9)).all()

    def test_work_conserving(self):
        """Every flow is blocked by at least one saturated constraint."""
        rng = np.random.default_rng(7)
        f, s, d = 30, 4, 4
        src = rng.integers(0, s, f)
        dst = rng.integers(0, d, f)
        cs = rng.uniform(10, 50, s)
        cd = rng.uniform(10, 50, d)
        rates = max_min_fair_rates(src, dst, cs, cd)
        per_src = np.bincount(src, weights=rates, minlength=s)
        per_dst = np.bincount(dst, weights=rates, minlength=d)
        saturated_s = per_src >= cs * (1 - 1e-6)
        saturated_d = per_dst >= cd * (1 - 1e-6)
        assert (saturated_s[src] | saturated_d[dst]).all()


def _run_flow(env, net, source, sink, nbytes, out, key):
    stats = yield net.start_flow(source, sink, nbytes)
    out[key] = stats


class TestFlowNetwork:
    def make(self, n_src=2, src_cap=100.0, n_sink=2, sink_cap=50.0, **kw):
        env = Environment()
        pool = UniformSinkPool(n_sink, sink_cap)
        net = FlowNetwork(env, np.full(n_src, src_cap), pool, **kw)
        return env, net

    def test_single_flow_duration(self):
        env, net = self.make()
        out = {}
        env.process(_run_flow(env, net, 0, 0, 500.0, out, "f"))
        env.run()
        # bottleneck 50 B/s, 500 B -> 10 s
        assert out["f"].duration == pytest.approx(10.0)
        assert env.now == pytest.approx(10.0)

    def test_two_flows_share_then_speed_up(self):
        env, net = self.make(n_sink=1)
        out = {}
        env.process(_run_flow(env, net, 0, 0, 250.0, out, "short"))
        env.process(_run_flow(env, net, 1, 0, 500.0, out, "long"))
        env.run()
        # share 25 each; short finishes at t=10; long has 250 left,
        # then runs at 50 -> +5 s -> t=15.
        assert out["short"].end_time == pytest.approx(10.0)
        assert out["long"].end_time == pytest.approx(15.0)

    def test_flow_arrival_slows_existing(self):
        env, net = self.make(n_sink=1)
        out = {}
        env.process(_run_flow(env, net, 0, 0, 500.0, out, "first"))

        def late(env):
            yield env.timeout(2.0)
            yield from _run_flow(env, net, 1, 0, 500.0, out, "second")

        env.process(late(env))
        env.run()
        # first: 100 B at 50 B/s by t=2, then 400 B at 25 -> t=18.
        assert out["first"].end_time == pytest.approx(18.0)
        # second: 400 B at 25 by t=18 -> 100 left at 50 -> t=20.
        assert out["second"].end_time == pytest.approx(20.0)

    def test_source_nic_bottleneck(self):
        env, net = self.make(n_src=1, src_cap=30.0, n_sink=2, sink_cap=100.0)
        out = {}
        env.process(_run_flow(env, net, 0, 0, 150.0, out, "a"))
        env.process(_run_flow(env, net, 0, 1, 150.0, out, "b"))
        env.run()
        # NIC 30 shared -> 15 each -> both finish at t=10.
        assert out["a"].end_time == pytest.approx(10.0)
        assert out["b"].end_time == pytest.approx(10.0)

    def test_default_flow_cap(self):
        env, net = self.make(n_sink=1, sink_cap=100.0, flow_cap=10.0)
        out = {}
        env.process(_run_flow(env, net, 0, 0, 100.0, out, "f"))
        env.run()
        assert out["f"].duration == pytest.approx(10.0)

    def test_zero_byte_flow_completes_instantly(self):
        env, net = self.make()
        out = {}
        env.process(_run_flow(env, net, 0, 0, 0.0, out, "f"))
        env.run()
        assert out["f"].duration == 0.0

    def test_cancel_flow(self):
        env, net = self.make(n_sink=1)
        from repro.sim import EventAborted

        results = {}

        def canceller(env):
            ev = net.start_flow(0, 0, 1000.0)
            fid = ev_fid[0]
            yield env.timeout(2.0)
            left = net.cancel_flow(fid)
            results["left"] = left
            try:
                yield ev
            except EventAborted:
                results["aborted"] = True

        ev_fid = [0]  # the first flow id is 0
        env.process(canceller(env))
        env.run()
        assert results["left"] == pytest.approx(1000.0 - 50.0 * 2.0)
        assert results.get("aborted")

    def test_cancel_unknown_flow_raises(self):
        env, net = self.make()
        with pytest.raises(KeyError):
            net.cancel_flow(999)

    def test_bad_endpoints_rejected(self):
        env, net = self.make()
        with pytest.raises(IndexError):
            net.start_flow(99, 0, 10.0)
        with pytest.raises(IndexError):
            net.start_flow(0, 99, 10.0)
        with pytest.raises(ValueError):
            net.start_flow(0, 0, -1.0)

    @pytest.mark.parametrize("nbytes, flow_cap", [
        (np.nan, None), (1e6, np.nan), (1e6, 0.0), (1e6, -1.0),
    ])
    def test_nan_or_nonpositive_flow_rejected(self, nbytes, flow_cap):
        # A NaN finish time arms no timer: a NaN flow admitted next to a
        # healthy one would leave both unfinished when run() returns.
        # A flow's cap is the network's, so a bad cap is refused when
        # the network is built.
        env, net = self.make()
        out = {}
        env.process(_run_flow(env, net, 1, 1, 100.0, out, "ok"))
        with pytest.raises(ValueError):
            if flow_cap is None:
                net.start_flow(0, 0, nbytes)
            else:
                self.make(flow_cap=flow_cap)
        env.run()
        assert out["ok"].duration == pytest.approx(2.0)

    def test_nan_capacities_rejected(self):
        env = Environment()
        pool = UniformSinkPool(2, 50.0)
        with pytest.raises(ValueError):
            UniformSinkPool(2, np.nan)
        with pytest.raises(ValueError):
            FlowNetwork(env, np.array([100.0, np.nan]), pool)
        for cap in (np.nan, 0.0):
            with pytest.raises(ValueError):
                FlowNetwork(env, np.full(2, 100.0), pool, flow_cap=cap)

    def test_nan_byte_adjustment_rejected(self):
        env, net = self.make()
        ev, fid = net.start_flow_with_id(0, 0, 500.0)
        env.run(until=1.0)
        with pytest.raises(ValueError):
            net.adjust_flow_bytes(fid, np.nan)
        env.run()
        assert ev.value.end_time == pytest.approx(10.0)

    def test_byte_conservation(self):
        env, net = self.make(n_src=4, n_sink=3)
        out = {}
        rng = np.random.default_rng(0)
        total = 0.0
        for i in range(20):
            nb = float(rng.uniform(10, 500))
            total += nb
            env.process(
                _run_flow(env, net, int(rng.integers(0, 4)),
                          int(rng.integers(0, 3)), nb, out, i)
            )
        env.run()
        assert len(out) == 20
        assert net.total_bytes_delivered == pytest.approx(total, rel=1e-6)

    def test_slot_recycling_under_churn(self):
        env, net = self.make(n_sink=1, sink_cap=1000.0)
        out = {}

        def churn(env):
            for i in range(300):
                yield from _run_flow(env, net, 0, 0, 10.0, out, i)

        env.process(churn(env))
        env.run()
        assert len(out) == 300
        assert net.active_flow_count == 0

    def test_many_concurrent_flows_fair(self):
        env, net = self.make(n_src=8, src_cap=1e9, n_sink=1, sink_cap=80.0)
        out = {}
        for i in range(8):
            env.process(_run_flow(env, net, i, 0, 100.0, out, i))
        env.run()
        ends = {s.end_time for s in out.values()}
        assert len(ends) == 1  # perfectly fair -> simultaneous finish
        assert ends.pop() == pytest.approx(10.0)

    def test_stream_counts_snapshot(self):
        env, net = self.make(n_sink=2)
        env.process(_run_flow(env, net, 0, 0, 500.0, {}, "a"))
        env.process(_run_flow(env, net, 1, 1, 500.0, {}, "b"))
        env.run(until=1.0)
        counts = net.sink_stream_counts()
        assert counts.tolist() == [1, 1]
        inflow = net.sink_inflow()
        assert inflow.sum() == pytest.approx(100.0)

    def test_infinite_sink_settles_without_warnings(self):
        # An uncapped flow on an infinite-capacity sink is frozen at its
        # infinite cap; the waterfill's inf - inf there must stay quiet.
        env = Environment()
        net = FlowNetwork(env, np.full(1, 100.0), UniformSinkPool(2, np.inf))
        out = {}
        env.process(_run_flow(env, net, 0, 1, 500.0, out, "f"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            env.run()
        assert out["f"].duration == pytest.approx(5.0)
