"""The simulation environment: clock, calendar, and run loop."""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Any, Callable, Generator, Optional

from repro.sim.events import Event, Timeout
from repro.sim.process import Process

if TYPE_CHECKING:  # pragma: no cover
    from repro.trace.tracer import Tracer

__all__ = ["Environment", "StopSimulation", "SimulationError", "Deadlock"]


class StopSimulation(Exception):
    """Raised internally to halt :meth:`Environment.run` early."""


class SimulationError(RuntimeError):
    """An unhandled exception escaped a simulation process."""

    def __init__(self, process: Process, cause: BaseException):
        super().__init__(f"process {process.name!r} crashed: {cause!r}")
        self.process = process
        self.cause = cause


class Deadlock(RuntimeError):
    """The event calendar drained while processes were still waiting.

    The classic symptom of a hung storage target with no timeout armed
    anywhere: every live process is parked on an event nothing will
    ever fire.  Carries the list of unfinished processes so the report
    names the suspects instead of just "ran out of events".
    """

    def __init__(self, processes: "list[Process]", detail: str = ""):
        names = ", ".join(sorted(p.name for p in processes)) or "none"
        msg = (
            f"deadlock: event calendar empty with "
            f"{len(processes)} live waiting process(es): {names}"
        )
        if detail:
            msg = f"{msg} ({detail})"
        super().__init__(msg)
        self.processes = list(processes)


class Environment:
    """Owns simulated time and the pending-event calendar.

    Parameters
    ----------
    initial_time:
        Starting value of the clock (seconds by convention throughout
        :mod:`repro`).
    strict:
        When True (default) an unhandled exception in any process aborts
        the whole simulation with :class:`SimulationError` — silent
        process death hides protocol bugs.

    The environment is the one holder of the simulation's instruments:
    ``tracer`` and ``metrics`` are None (off) until :meth:`set_tracer`
    / :meth:`set_metrics` attach one, and every instrumented layer
    reads them from here, paying one attribute check when off.
    """

    def __init__(self, initial_time: float = 0.0, strict: bool = True):
        self._now = float(initial_time)
        self._queue: list = []  # heap of (time, priority, seq, event)
        self._seq = 0
        self._active_process: Optional[Process] = None
        self._live: set = set()  # processes spawned but not yet finished
        self.strict = strict
        self._crashed: Optional[SimulationError] = None
        self.tracer: Optional["Tracer"] = None
        self.metrics = None  # Optional[MetricsRegistry]
        self.profiler = None  # Optional[Profiler]

    def set_tracer(self, tracer: Optional["Tracer"]) -> None:
        """Attach (or detach, with None) a tracer to this environment."""
        self.tracer = tracer
        if tracer is not None:
            tracer.bind(self)

    def set_metrics(self, registry) -> None:
        """Attach (or detach, with None) a metrics registry."""
        self.metrics = registry
        if registry is not None:
            registry.bind(self)

    # -- introspection (sampled by telemetry, not updated per event) ------
    @property
    def events_scheduled(self) -> int:
        """Total events ever scheduled — a monotone throughput counter."""
        return self._seq

    @property
    def calendar_depth(self) -> int:
        """Events currently pending (including cancelled tombstones)."""
        return len(self._queue)

    # -- clock -----------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently executing, if any."""
        return self._active_process

    # -- event construction ----------------------------------------------
    def event(self) -> Event:
        """A fresh untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event firing *delay* time units from now."""
        return Timeout(self, delay, value)

    def process(
        self,
        generator: Generator[Event, Any, Any],
        name: Optional[str] = None,
    ) -> Process:
        """Launch *generator* as a new simulation process."""
        p = Process(self, generator, name=name)
        tr = self.tracer
        if tr is not None:
            tr.instant("process.spawn", cat="process", pid="sim", tid=p.name)

            def _trace_exit(_ev, _tr=tr, _name=p.name) -> None:
                _tr.instant("process.exit", cat="process", pid="sim",
                            tid=_name)

            p.add_callback(_trace_exit)
        return p

    def any_of(self, events) -> Event:
        from repro.sim.events import AnyOf

        return AnyOf(self, events)

    def all_of(self, events) -> Event:
        from repro.sim.events import AllOf

        return AllOf(self, events)

    # -- scheduling --------------------------------------------------------
    def _schedule(self, event: Event, delay: float = 0.0, priority: int = 1) -> None:
        if event._scheduled:
            raise RuntimeError(f"{event!r} scheduled twice")
        event._scheduled = True
        self._seq += 1
        heapq.heappush(self._queue, (self._now + delay, priority, self._seq, event))

    def schedule_callback(
        self, delay: float, fn: Callable[[], None], priority: int = 1
    ) -> Event:
        """Run a plain callable at ``now + delay`` (no process needed).

        Used by the flow network to arm its single "next state change"
        timer.  Returns the underlying event, which supports
        :meth:`~repro.sim.events.Event.cancel`: a cancelled timer is
        discarded lazily when the calendar reaches it (the heap entry
        is skipped without advancing the clock), so the calendar stays
        a plain heap and cancelling the last pending event leaves it
        genuinely empty.  Callers that re-arm often (the flow network)
        should cancel the superseded event — a cancelled entry is one
        tuple skipped during a heap pop, whereas an uncancelled stale
        entry fires into a dead closure and, under heavy churn, piles
        thousands of tombstones onto one simulated instant.
        """
        ev = Event(self)
        ev._ok = True
        ev._value = None
        ev.add_callback(lambda _ev: fn())
        self._schedule(ev, delay=delay, priority=priority)
        return ev

    def _crash(self, process: Process, cause: BaseException) -> None:
        if self._crashed is None:
            self._crashed = SimulationError(process, cause)

    # -- liveness ---------------------------------------------------------
    def unfinished_processes(self) -> "list[Process]":
        """Processes that have been spawned but have not yet finished.

        After :meth:`run` returns (or raises), anything listed here was
        still parked on an event — the starting point for diagnosing a
        hang or partial run.
        """
        return [p for p in self._live if p.is_alive]

    def check_deadlock(self) -> None:
        """Raise :class:`Deadlock` if the calendar is empty but processes wait.

        Cheap enough to call after any :meth:`run` that returned without
        its awaited condition: an empty calendar with live processes
        means nothing will ever wake them.
        """
        if self.peek() != float("inf"):
            return
        waiting = self.unfinished_processes()
        if waiting:
            raise Deadlock(waiting)

    # -- run loop -----------------------------------------------------------
    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if idle.

        Cancelled entries are discarded here rather than at their fire
        time, so they never hold the clock hostage: cancelling the last
        pending event leaves the calendar genuinely empty.
        """
        q = self._queue
        while q and q[0][3]._cancelled:
            heapq.heappop(q)
        return q[0][0] if q else float("inf")

    def step(self) -> None:
        """Process exactly one event."""
        q = self._queue
        pop = heapq.heappop
        while q and q[0][3]._cancelled:
            pop(q)
        if not q:
            raise StopSimulation("calendar empty")
        t, _prio, _seq, event = pop(q)
        if t > self._now:
            self._now = t
        elif t < self._now - 1e-12:
            raise RuntimeError(
                f"time went backwards: event at {t} < now {self._now}"
            )
        callbacks, event.callbacks = event.callbacks, None
        for fn in callbacks:
            fn(event)
            if self._crashed is not None:
                raise self._crashed

    def run(self, until: Optional[float | Event] = None) -> Any:
        """Run until the calendar drains, *until* time passes, or event fires.

        Returns the event's value when *until* is an event.
        """
        if until is None:
            stop_time = float("inf")
            stop_event: Optional[Event] = None
        elif isinstance(until, Event):
            stop_event = until
            stop_time = float("inf")
            if stop_event.processed:
                if stop_event.ok:
                    return stop_event.value
                raise stop_event.value
        else:
            stop_time = float(until)
            stop_event = None
            if stop_time < self._now:
                raise ValueError(
                    f"until={stop_time} is in the past (now={self._now})"
                )

        # The hot loop: equivalent to peek()+step() per iteration, but
        # with the heap scanned once, the heap/pop lookups hoisted, and
        # the stop-event check reduced to a slot load.  The simulation
        # spends most of its wall-clock here.
        q = self._queue
        pop = heapq.heappop
        try:
            while q:
                while q and q[0][3]._cancelled:
                    pop(q)
                if not q:
                    break
                t = q[0][0]
                if t > stop_time:
                    self._now = stop_time
                    return None
                event = pop(q)[3]
                if t > self._now:
                    self._now = t
                elif t < self._now - 1e-12:
                    raise RuntimeError(
                        f"time went backwards: event at {t} < "
                        f"now {self._now}"
                    )
                callbacks, event.callbacks = event.callbacks, None
                for fn in callbacks:
                    fn(event)
                    if self._crashed is not None:
                        raise self._crashed
                if stop_event is not None and stop_event.callbacks is None:
                    if stop_event._ok:
                        return stop_event._value
                    raise stop_event._value
        except StopSimulation:
            pass
        if stop_event is not None:
            raise Deadlock(
                self.unfinished_processes(),
                detail="calendar drained before the awaited event fired",
            )
        if stop_time != float("inf"):
            self._now = stop_time
        return None
