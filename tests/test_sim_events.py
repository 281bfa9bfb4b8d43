"""Unit tests for the event primitives."""

import pytest

from repro.sim import AllOf, AnyOf, Environment, Event, EventAborted, Timeout


def _valued(env, delay, value):
    """An event firing *delay* from now with *value*."""
    ev = env.event()
    env.schedule_callback(delay, lambda: ev.succeed(value))
    return ev


@pytest.fixture
def env():
    return Environment()


class TestEvent:
    def test_initial_state(self, env):
        ev = env.event()
        assert not ev.triggered
        assert not ev.processed
        with pytest.raises(RuntimeError):
            _ = ev.value

    def test_succeed_delivers_value(self, env):
        ev = env.event()
        ev.succeed(42)
        assert ev.triggered and ev.ok
        assert ev.value == 42

    def test_double_trigger_rejected(self, env):
        ev = env.event()
        ev.succeed()
        with pytest.raises(RuntimeError):
            ev.succeed()
        with pytest.raises(RuntimeError):
            ev.fail(ValueError("x"))

    def test_fail_requires_exception(self, env):
        ev = env.event()
        with pytest.raises(TypeError):
            ev.fail("not an exception")

    def test_callbacks_run_in_order(self, env):
        ev = env.event()
        order = []
        ev.add_callback(lambda e: order.append(1))
        ev.add_callback(lambda e: order.append(2))
        ev.succeed()
        env.run()
        assert order == [1, 2]

    def test_abort_wraps_cause(self, env):
        ev = env.event()
        ev.abort("why")
        assert not ev.ok
        assert isinstance(ev._value, EventAborted)
        assert ev._value.cause == "why"

    def test_cancel_empties_calendar(self, env):
        """Cancelling the only pending timeout leaves the calendar
        empty — the clock never advances to the dead event's time."""
        to = env.timeout(5.0)
        to.cancel()
        assert to._cancelled
        env.run()
        assert env.now == 0.0

    def test_cancel_skips_callbacks_without_blocking_clock(self, env):
        fired = []
        dead = env.timeout(1.0)
        dead.add_callback(lambda e: fired.append("dead"))
        live = env.timeout(2.0)
        live.add_callback(lambda e: fired.append("live"))
        dead.cancel()
        env.run()
        assert fired == ["live"]
        assert env.now == 2.0

    def test_cancel_processed_event_rejected(self, env):
        to = env.timeout(1.0)
        env.run()
        with pytest.raises(RuntimeError):
            to.cancel()

    def test_cancel_twice_is_noop(self, env):
        to = env.timeout(1.0)
        to.cancel()
        to.cancel()
        env.run()
        assert env.now == 0.0


class TestTimeout:
    def test_fires_at_delay(self, env):
        times = []

        def proc(env):
            yield env.timeout(2.5)
            times.append(env.now)

        env.process(proc(env))
        env.run()
        assert times == [2.5]

    def test_negative_delay_rejected(self, env):
        with pytest.raises(ValueError):
            Timeout(env, -1.0)

    def test_zero_delay_is_legal(self, env):
        hits = []

        def proc(env):
            yield env.timeout(0)
            hits.append(env.now)

        env.process(proc(env))
        env.run()
        assert hits == [0.0]

    def test_value_passthrough(self, env):
        got = []

        def proc(env):
            v = yield _valued(env, 1, "payload")
            got.append(v)

        env.process(proc(env))
        env.run()
        assert got == ["payload"]

    def test_ordering_between_timeouts(self, env):
        order = []

        def proc(env, delay, label):
            yield env.timeout(delay)
            order.append(label)

        env.process(proc(env, 3, "c"))
        env.process(proc(env, 1, "a"))
        env.process(proc(env, 2, "b"))
        env.run()
        assert order == ["a", "b", "c"]


class TestConditions:
    def test_all_of_waits_for_all(self, env):
        done = []

        def proc(env):
            t1 = _valued(env, 1, "x")
            t2 = _valued(env, 5, "y")
            res = yield AllOf(env, [t1, t2])
            done.append((env.now, sorted(res.values())))

        env.process(proc(env))
        env.run()
        assert done == [(5.0, ["x", "y"])]

    def test_any_of_fires_on_first(self, env):
        done = []

        def proc(env):
            t1 = _valued(env, 1, "fast")
            t2 = _valued(env, 5, "slow")
            res = yield AnyOf(env, [t1, t2])
            done.append((env.now, list(res.values())))

        env.process(proc(env))
        env.run()
        assert done == [(1.0, ["fast"])]

    def test_empty_all_of_fires_immediately(self, env):
        cond = AllOf(env, [])
        assert cond.triggered
        assert cond.value == {}

    def test_failed_sub_event_fails_condition(self, env):
        boom = env.event()

        def proc(env):
            with pytest.raises(ValueError):
                yield AllOf(env, [env.timeout(10), boom])
            return "handled"

        p = env.process(proc(env))

        def failer(env):
            yield env.timeout(1)
            boom.fail(ValueError("kaput"))

        env.process(failer(env))
        env.run()
        assert p.value == "handled"

    def test_foreign_environment_rejected(self, env):
        other = Environment()
        with pytest.raises(ValueError):
            AllOf(env, [env.timeout(1), other.timeout(1)])

    def test_condition_with_already_fired_event(self, env):
        ev = env.event()
        ev.succeed("pre")
        env.run()  # process the event
        done = []

        def proc(env):
            res = yield AllOf(env, [ev, env.timeout(2)])
            done.append(sorted(str(v) for v in res.values()))

        env.process(proc(env))
        env.run()
        assert done and "pre" in done[0][1] or "pre" in done[0]


class TestAllSettled:
    def test_collects_failures_as_values(self):
        from repro.sim import AllSettled

        env = Environment()

        def ok(env):
            yield env.timeout(1)
            return "fine"

        p_ok = env.process(ok(env))
        p_bad = env.event()
        env.schedule_callback(2, lambda: p_bad.fail(ValueError("kaput")))
        got = []

        def joiner(env):
            res = yield AllSettled(env, [p_ok, p_bad])
            got.append(res)

        env.process(joiner(env))
        env.run()
        assert got, "AllSettled never fired"
        values = got[0]
        assert values[p_ok] == "fine"
        assert isinstance(values[p_bad], ValueError)

    def test_waits_for_the_slowest(self):
        from repro.sim import AllSettled

        env = Environment()

        def slow(env):
            yield env.timeout(10)

        fail_fast = env.event()
        env.schedule_callback(1, lambda: fail_fast.fail(ValueError("early")))
        procs = [fail_fast, env.process(slow(env))]
        fired_at = []

        def joiner(env):
            yield AllSettled(env, procs)
            fired_at.append(env.now)

        env.process(joiner(env))
        env.run()
        assert fired_at == [10.0]
