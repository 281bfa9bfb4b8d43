"""Unit tests for the environment/run loop and processes."""

import pytest

from repro.sim import Environment, Interrupt, ProcessKilled, SimulationError


@pytest.fixture
def env():
    return Environment()


class TestClock:
    def test_starts_at_initial_time(self):
        assert Environment(initial_time=100.0).now == 100.0

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

    def test_unhandled_exception_lenient(self):
        env = Environment(strict=False)

        def bad(env):
            yield env.timeout(1)
            raise RuntimeError("boom")

        p = env.process(bad(env))
        env.run()
        assert p.triggered and not p.ok

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
