"""Lazy deadlines: :class:`repro.sim.engine.Alarm` and its two users.

An alarm pushes a calendar entry only when its deadline moves earlier;
a later deadline is recorded, and the entry that comes due early moves
itself there without calling anything.  The unit tests pin that
contract on a bare environment.  The fabric tests check what it buys
and what it must not change: a flow network whose completion deadline
only slips later settles no more often than before, completes its
flows at the same floats as a network that pushes a fresh entry on
every settle, and still trips its livelock guard.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.net.fabric import FlowNetwork
from repro.sim.engine import Alarm, Environment
from tests.simcal import next_instant
from tests.test_fabric_incremental import MutableCapPool


@pytest.fixture
def env():
    return Environment()


def _recorder(env):
    hits: list = []
    return hits, Alarm(env, lambda: hits.append(env.now))


class TestAlarm:
    def test_later_sets_push_one_entry(self, env):
        hits, alarm = _recorder(env)
        for k in range(10):
            alarm.set(1.0 + k)
        assert env.events_scheduled == 1
        env.run()
        assert hits == [10.0]
        # The one entry came due at 1.0 and moved itself to 10.0.
        assert env.events_scheduled == 2

    def test_early_fire_moves_to_the_deadline_and_calls_nothing(self, env):
        hits, alarm = _recorder(env)
        alarm.set(1.0)
        alarm.set(3.0)
        env.run(until=2.0)
        assert hits == []
        assert next_instant(env) == 3.0
        env.run()
        assert hits == [3.0]

    def test_equal_set_keeps_the_entry(self, env):
        hits, alarm = _recorder(env)
        alarm.set(2.0)
        alarm.set(2.0)
        env.run()
        assert hits == [2.0] and env.events_scheduled == 1

    def test_earlier_set_cancels_and_repushes(self, env):
        hits, alarm = _recorder(env)
        alarm.set(5.0)
        alarm.set(2.0)
        assert env.events_scheduled == 2
        env.run()
        assert hits == [2.0]
        assert env.now == 2.0  # the withdrawn entry never moved the clock

    def test_clear_withdraws_without_pushing(self, env):
        hits, alarm = _recorder(env)
        alarm.set(1.0)
        alarm.set(4.0)
        depth = env.calendar_depth
        alarm.clear()
        assert env.calendar_depth == depth
        assert next_instant(env) == float("inf")
        env.run()
        assert hits == [] and env.now == 0.0
        alarm.clear()  # a no-op when nothing is armed

    def test_set_from_inside_fn_pushes_fresh(self, env):
        hits = []

        def tick():
            hits.append(env.now)
            if len(hits) < 3:
                alarm.set(env.now + 1.0)

        alarm = Alarm(env, tick)
        alarm.set(1.0)
        env.run()
        assert hits == [1.0, 2.0, 3.0]
        assert env.events_scheduled == 3

    def test_rejects_a_past_instant_and_keeps_its_entry(self, env):
        hits, alarm = _recorder(env)
        env.run(until=1.0)
        alarm.set(2.0)
        for bad in (0.5, float("nan")):
            with pytest.raises(ValueError, match="invalid instant"):
                alarm.set(bad)
        env.run()
        assert hits == [2.0]


class FreshArmNetwork(FlowNetwork):
    """Reference: every settle withdraws its deadline and pushes anew."""

    def _arm_timer(self, delay: float) -> None:
        self._timer.clear()
        super()._arm_timer(delay)


def _one_flow(cls, schedule):
    """One 1e8-byte flow on one sink whose capacity follows *schedule*
    (``(instant, capacity)`` pairs); returns the network and the flow's
    completion instant."""
    env = Environment()
    pool = MutableCapPool(np.array([1e8]))
    net = cls(env, np.array([1.6e9]), pool)
    done = []
    net.start_flow(0, 0, 1e8).add_callback(
        lambda ev: done.append(ev.value.end_time))

    def change(cap):
        pool.set_capacity(0, cap)
        net.invalidate()

    for t, cap in schedule:
        env.schedule_callback(t, lambda cap=cap: change(cap))
    env.run()
    assert len(done) == 1
    return net, done[0]


def test_early_fire_does_not_settle():
    """A rate drop moves the completion later: the entry armed for the
    old instant comes due without a settle."""
    env = Environment()
    pool = MutableCapPool(np.array([1e8]))
    net = FlowNetwork(env, np.array([1.6e9]), pool)
    net.start_flow(0, 0, 1e8)
    env.run(until=0.5)
    pool.set_capacity(0, 5e7)
    net.invalidate()
    settles = net.settle_count
    env.run(until=1.25)  # past the stale 1.0 prediction
    assert net.settle_count == settles
    assert net._active.any()
    assert next_instant(env) == 1.5
    env.run()
    assert net.settle_count == settles + 1
    assert not net._active.any()


@pytest.mark.parametrize("schedule", [
    [(0.25, 6e7), (0.6, 3e7)],  # two drops: the deadline only slips
    [(0.25, 6e7), (0.6, 3e7), (0.9, 1.3e8)],  # then a rise pulls it in
])
def test_completion_matches_fresh_arming(schedule):
    lazy, t_lazy = _one_flow(FlowNetwork, schedule)
    fresh, t_fresh = _one_flow(FreshArmNetwork, schedule)
    assert t_lazy == t_fresh
    assert lazy.settle_count == fresh.settle_count
    assert lazy.env.events_scheduled < fresh.env.events_scheduled


class StuckPool(MutableCapPool):
    """A pool forever one transition away: it reports one due now."""

    def next_transition(self, inflow, counts, now):
        return 0.0


def test_stall_tripwire_still_raises():
    env = Environment()
    net = FlowNetwork(env, np.array([1.6e9]), StuckPool(np.array([1e8])))
    settles = []

    def backstop(now):
        # Without the tripwire this loop would never end.
        settles.append(now)
        assert len(settles) < 200_000, "tripwire never fired"

    net.on_settle = backstop
    net.invalidate()
    with pytest.raises(RuntimeError, match="zero-delay settles"):
        env.run()
    assert env.now == 0.0
    assert 100_000 < len(settles) < 200_000
