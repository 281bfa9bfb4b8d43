"""Unit tests for the environment/run loop and processes."""

import pytest

from repro.sim import Environment, Interrupt, ProcessKilled, SimulationError


@pytest.fixture
def env():
    return Environment()


class TestClock:
    def test_starts_at_initial_time(self):
        assert Environment().now == 0.0

    def test_run_until_time_advances_clock(self, env):
        env.process(iter([]) if False else _ticker(env, 1.0, []))
        env.run(until=10.0)
        assert env.now == 10.0

    def test_run_until_past_rejected(self, env):
        env.run(until=5.0)
        with pytest.raises(ValueError):
            env.run(until=1.0)

    def test_peek_empty_is_inf(self, env):
        assert env.peek() == float("inf")


def _ticker(env, period, log):
    while True:
        yield env.timeout(period)
        log.append(env.now)


class TestProcesses:
    def test_process_return_value(self, env):
        def body(env):
            yield env.timeout(3)
            return "result"

        p = env.process(body(env))
        env.run()
        assert p.value == "result"

    def test_run_until_event(self, env):
        def body(env):
            yield env.timeout(7)
            return 99

        p = env.process(body(env))
        assert env.run(until=p) == 99
        assert env.now == 7.0

    def test_fork_join(self, env):
        def child(env, d):
            yield env.timeout(d)
            return d

        def parent(env):
            a = env.process(child(env, 2))
            b = env.process(child(env, 5))
            va = yield a
            vb = yield b
            return va + vb

        p = env.process(parent(env))
        env.run()
        assert p.value == 7
        assert env.now == 5.0

    def test_yield_non_event_is_error(self, env):
        def bad(env):
            yield 42

        p = env.process(bad(env))
        with pytest.raises(SimulationError):
            env.run()
        assert not p.ok

    def test_unhandled_exception_strict(self, env):
        def bad(env):
            yield env.timeout(1)
            raise RuntimeError("boom")

        env.process(bad(env))
        with pytest.raises(SimulationError) as ei:
            env.run()
        assert "boom" in repr(ei.value.cause)

    def test_non_generator_rejected(self, env):
        with pytest.raises(TypeError):
            env.process(lambda: None)

    def test_waiting_on_already_fired_event(self, env):
        ev = env.event()
        ev.succeed("early")
        log = []

        def body(env):
            v = yield ev
            log.append(v)

        env.process(body(env))
        env.run()
        assert log == ["early"]


class TestInterrupt:
    def test_interrupt_resumes_with_exception(self, env):
        log = []

        def sleeper(env):
            try:
                yield env.timeout(100)
            except Interrupt as i:
                log.append((env.now, i.cause))

        p = env.process(sleeper(env))

        def interrupter(env):
            yield env.timeout(3)
            p.interrupt("wakeup")

        env.process(interrupter(env))
        env.run()
        assert log == [(3.0, "wakeup")]

    def test_interrupted_process_continues(self, env):
        def sleeper(env):
            try:
                yield env.timeout(100)
            except Interrupt:
                pass
            yield env.timeout(2)
            return env.now

        p = env.process(sleeper(env))

        def interrupter(env):
            yield env.timeout(1)
            p.interrupt()

        env.process(interrupter(env))
        env.run()
        assert p.value == 3.0

    def test_cannot_interrupt_dead_process(self, env):
        def quick(env):
            yield env.timeout(1)

        p = env.process(quick(env))
        env.run()
        with pytest.raises(RuntimeError):
            p.interrupt()

    def test_kill(self, env):
        def sleeper(env):
            yield env.timeout(100)

        p = env.process(sleeper(env))

        def killer(env):
            yield env.timeout(1)
            p.kill("gone")

        env.process(killer(env))
        env.run()
        assert p.triggered and not p.ok
        assert isinstance(p._value, ProcessKilled)

    def test_kill_before_first_step(self, env):
        ran = []

        def body(env):
            ran.append(True)
            yield env.timeout(1)

        p = env.process(body(env))
        p.kill("early")  # its bootstrap resume is still on the calendar
        env.run()
        assert ran == []
        assert p.triggered and not p.ok
        assert isinstance(p._value, ProcessKilled)


class TestSchedulerDeterminism:
    def test_fifo_among_simultaneous_events(self, env):
        order = []

        def body(env, label):
            yield env.timeout(5)
            order.append(label)

        for label in "abcde":
            env.process(body(env, label))
        env.run()
        assert order == list("abcde")

    def test_schedule_callback(self, env):
        hits = []
        env.schedule_callback(4.0, lambda: hits.append(env.now))
        env.run()
        assert hits == [4.0]


class TestDeadlockDetection:
    def test_run_until_event_that_never_fires_raises(self, env):
        never = env.event()

        def waiter(env):
            yield never

        env.process(waiter(env))
        from repro.sim import Deadlock

        with pytest.raises(Deadlock) as excinfo:
            env.run(until=never)
        assert excinfo.value.processes
        assert "calendar drained" in str(excinfo.value)

    def test_unfinished_processes_lists_parked_waiters(self, env):
        gate = env.event()

        def waiter(env):
            yield gate

        def finisher(env):
            yield env.timeout(1)

        w = env.process(waiter(env), name="parked")
        env.process(finisher(env), name="done")
        env.run()
        alive = env.unfinished_processes()
        assert alive == [w]

    def test_check_deadlock_raises_only_when_calendar_empty(self, env):
        gate = env.event()

        def waiter(env):
            yield gate

        env.process(waiter(env))
        env.process(_ticker_once(env))
        from repro.sim import Deadlock

        env.check_deadlock()  # ticker still scheduled: no deadlock yet
        env.run()
        with pytest.raises(Deadlock):
            env.check_deadlock()

    def test_check_deadlock_quiet_when_all_finished(self, env):
        def body(env):
            yield env.timeout(1)

        env.process(body(env))
        env.run()
        env.check_deadlock()  # must not raise


def _ticker_once(env):
    yield env.timeout(2)


class TestCallbackHandles:
    """``schedule_callback`` entries: slotted handles, not events."""

    def test_ties_fire_in_schedule_order_across_kinds(self, env):
        order = []
        env.schedule_callback(1.0, lambda: order.append("cb1"))
        env.timeout(1.0).add_callback(lambda _ev: order.append("ev1"))
        env.schedule_callback(1.0, lambda: order.append("cb2"))
        env.timeout(1.0).add_callback(lambda _ev: order.append("ev2"))
        # A lower priority number fires first at one instant, whatever
        # the schedule order; equal priorities keep schedule order.
        env.schedule_callback(1.0, lambda: order.append("urgent"), priority=0)
        env.run()
        assert order == ["urgent", "cb1", "ev1", "cb2", "ev2"]

    def test_cancelled_handle_neither_fires_nor_moves_clock(self, env):
        hits = []
        env.schedule_callback(1.0, lambda: hits.append(env.now))
        late = env.schedule_callback(5.0, lambda: hits.append(env.now))
        late.cancel()
        assert late.cancelled and not late.processed
        env.run()
        assert hits == [1.0]
        assert env.now == 1.0

    def test_peek_skips_cancelled_handle(self, env):
        first = env.schedule_callback(1.0, lambda: None)
        env.schedule_callback(3.0, lambda: None)
        first.cancel()
        assert env.peek() == 3.0

    def test_cancel_twice_is_noop_and_after_firing_raises(self, env):
        h = env.schedule_callback(1.0, lambda: None)
        h.cancel()
        h.cancel()
        assert h.cancelled
        fired = env.schedule_callback(1.0, lambda: None)
        env.run()
        with pytest.raises(RuntimeError, match="already processed"):
            fired.cancel()

    def test_processed_flips_when_handle_fires(self, env):
        seen = []
        h = env.schedule_callback(2.0, lambda: seen.append(h.processed))
        assert not h.processed
        env.run(until=1.0)
        assert not h.processed
        env.run()
        assert h.processed
        assert seen == [True]  # already set while fn runs, as for events

    def test_each_handle_is_one_scheduled_event(self, env):
        before = env.events_scheduled
        handles = [env.schedule_callback(float(i), lambda: None)
                   for i in range(5)]
        assert env.events_scheduled == before + 5
        handles[0].cancel()
        env.run()
        assert env.events_scheduled == before + 5

    def test_raising_callback_propagates_out_of_run(self, env):
        def boom():
            raise KeyError("boom")

        env.schedule_callback(1.0, boom)
        env.schedule_callback(2.0, lambda: None)
        with pytest.raises(KeyError, match="boom"):
            env.run()
        assert env.now == 1.0

    def test_process_bootstrap_is_one_entry(self, env):
        def body(env):
            yield env.timeout(1)

        before = env.events_scheduled
        p = env.process(body(env))
        assert env.events_scheduled == before + 1
        env.run()
        assert not p.is_alive
        # bootstrap, the timeout, and the process's own completion
        assert env.events_scheduled == before + 3


class TestDelayValidation:
    """A NaN delay compares False against everything, so it used to
    slip past the ``delay < 0`` check and corrupt the heap order."""

    @pytest.mark.parametrize("delay", [float("nan"), -1.0, -1e-9])
    def test_timeout_rejects(self, env, delay):
        with pytest.raises(ValueError, match="invalid delay"):
            env.timeout(delay)
        assert env.events_scheduled == 0

    @pytest.mark.parametrize("delay", [float("nan"), -1.0, -1e-9])
    def test_schedule_callback_rejects(self, env, delay):
        with pytest.raises(ValueError, match="invalid delay"):
            env.schedule_callback(delay, lambda: None)
        assert env.events_scheduled == 0

    def test_nan_among_valid_entries_leaves_order_intact(self, env):
        fired = []
        for t in (3.0, 1.0, 2.0):
            env.timeout(t).add_callback(
                lambda _ev, t=t: fired.append((t, env.now)))
        with pytest.raises(ValueError):
            env.timeout(float("nan"))
        env.run()
        assert fired == [(1.0, 1.0), (2.0, 2.0), (3.0, 3.0)]

    def test_zero_and_infinite_delays_allowed(self, env):
        env.timeout(0.0)
        env.schedule_callback(0, lambda: None)
        env.schedule_callback(float("inf"), lambda: None)
        env.run(until=10.0)
        assert env.now == 10.0


class TestAbsoluteCallbacks:
    """``schedule_callback_at``: the absolute-instant push."""

    def test_fires_at_the_given_float(self, env):
        env.run(until=0.1)
        when = 0.1 + 0.2  # 0.30000000000000004, not 0.3
        hits = []
        env.schedule_callback_at(when, lambda: hits.append(env.now))
        env.run()
        assert hits == [when]

    def test_relative_push_is_now_plus_delay(self, env):
        env.run(until=0.1)
        h = env.schedule_callback(0.2, lambda: None)
        (t, _, _, entry), = env._queue
        assert entry is h and t == 0.1 + 0.2

    @pytest.mark.parametrize("when", [float("nan"), 0.0, 1.0 - 1e-12])
    def test_rejects_past_and_nan(self, env, when):
        env.run(until=1.0)
        with pytest.raises(ValueError, match="invalid instant"):
            env.schedule_callback_at(when, lambda: None)
        assert env.events_scheduled == 0

    def test_now_and_infinity_allowed(self, env):
        env.run(until=2.0)
        hits = []
        env.schedule_callback_at(2.0, lambda: hits.append(env.now))
        env.schedule_callback_at(float("inf"), lambda: hits.append("never"))
        env.run(until=5.0)
        assert hits == [2.0]

    def test_ties_follow_time_priority_seq(self, env):
        order = []
        env.schedule_callback_at(1.0, lambda: order.append("at1"))
        env.schedule_callback(1.0, lambda: order.append("rel"))
        env.timeout(1.0).add_callback(lambda _ev: order.append("ev"))
        env.schedule_callback_at(1.0, lambda: order.append("at2"))
        env.schedule_callback_at(1.0, lambda: order.append("urgent"),
                                 priority=0)
        env.schedule_callback_at(0.5, lambda: order.append("early"),
                                 priority=2)
        env.run()
        assert order == ["early", "urgent", "at1", "rel", "ev", "at2"]
