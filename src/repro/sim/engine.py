"""The simulation environment: clock, calendar, and run loop."""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Any, Callable, Generator, Optional

from repro.sim.events import Event, Timeout
from repro.sim.process import Process

if TYPE_CHECKING:  # pragma: no cover
    from repro.trace.tracer import Tracer

__all__ = ["Alarm", "Environment", "SimulationError", "Deadlock"]


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


class _Callback:
    """The calendar entry :meth:`Environment.schedule_callback_at` returns.

    Not an :class:`Event`: nothing waits on it, so it carries only the
    callable, whether it has fired (``processed``) and whether it was
    withdrawn (:meth:`cancel`).  The run loop calls ``fn()`` directly.
    """

    __slots__ = ("fn", "processed", "_cancelled")

    def __init__(self, fn: Callable[[], None]):
        self.fn = fn
        self.processed = False
        self._cancelled = False

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    def cancel(self) -> "_Callback":
        """Withdraw the entry; a no-op the second time, an error once
        it has fired (as :meth:`Event.cancel`)."""
        if self.processed:
            raise RuntimeError(f"{self!r} already processed")
        self._cancelled = True
        return self


class Alarm:
    """One deadline, re-pushed only when it moves earlier.

    A deadline that is re-predicted many times before it comes due (a
    flow's next completion, a stream's next member boundary) would
    otherwise cancel one calendar entry and push another per
    prediction, leaving a tombstone each time.  An alarm keeps one
    armed handle, the instant it sits at, and the instant currently
    wanted:

    * :meth:`set` with an instant at or after the armed one only
      records it;
    * an earlier instant withdraws the handle and pushes one there;
    * a handle that comes due before the wanted instant re-pushes
      itself there and does nothing else;
    * :meth:`clear` withdraws the handle.

    ``fn()`` runs only at the wanted instant, exactly as if the last
    :meth:`set` had pushed a fresh entry; only same-instant tie order
    with other entries can differ, since a re-push takes a later
    sequence number.
    """

    __slots__ = ("env", "fn", "_handle", "_armed", "_wanted")

    def __init__(self, env: "Environment", fn: Callable[[], None]):
        self.env = env
        self.fn = fn
        self._handle: Optional[_Callback] = None
        self._armed = float("inf")  # instant the handle sits at
        self._wanted = float("inf")  # instant fn() is due

    def set(self, when: float) -> None:
        """Make ``fn()`` due at the absolute instant *when*."""
        handle = self._handle
        if handle is not None and when >= self._armed:
            self._wanted = when
            return
        self._handle = self.env.schedule_callback_at(when, self._fire)
        if handle is not None:
            handle.cancel()
        self._wanted = self._armed = when

    def clear(self) -> None:
        """Withdraw the deadline; a no-op when none is set."""
        handle = self._handle
        if handle is not None:
            handle.cancel()
            self._handle = None

    def _fire(self) -> None:
        wanted = self._wanted
        if wanted > self._armed:  # came due early: move to the deadline
            self._armed = wanted
            self._handle = self.env.schedule_callback_at(wanted, self._fire)
            return
        self._handle = None
        self.fn()


class Environment:
    """Owns simulated time and the pending-event calendar.

    The clock starts at 0 (seconds by convention throughout
    :mod:`repro`).  An unhandled exception in any process aborts the
    whole simulation with :class:`SimulationError`: silent process
    death hides protocol bugs.

    The environment is the one holder of the simulation's instruments:
    ``tracer`` and ``metrics`` are None (off) until :meth:`set_tracer`
    / :meth:`set_metrics` attach one, and every instrumented layer
    reads them from here, paying one attribute check when off.
    """

    def __init__(self):
        self._now = 0.0
        self._queue: list = []  # heap of (time, priority, seq, entry)
        self._seq = 0
        self._live: set = set()  # processes spawned but not yet finished
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
    ) -> _Callback:
        """Run a plain callable at ``now + delay`` (no process needed).

        The relative form of :meth:`schedule_callback_at`, with the
        same handle and the same tie rule.
        """
        if not delay >= 0:  # also rejects NaN
            raise ValueError(f"invalid delay {delay!r}")
        return self.schedule_callback_at(self._now + delay, fn, priority)

    def schedule_callback_at(
        self, when: float, fn: Callable[[], None], priority: int = 1
    ) -> _Callback:
        """Run a plain callable at the absolute instant *when*.

        Returns a handle with ``processed`` and ``cancel()`` (not an
        :class:`Event`: nothing can wait on it).  It takes one sequence
        number like any event, so ties on time and priority fire in
        schedule order across handles and events.  A cancelled handle
        is discarded lazily when the calendar reaches it (the heap
        entry is skipped without advancing the clock), so the calendar
        stays a plain heap and cancelling the last pending entry
        leaves it genuinely empty.  Every cancelled entry still costs
        a push and a pop: a deadline that is re-predicted often
        belongs in an :class:`Alarm`, which pushes only when the
        deadline moves earlier.

        The instant is taken as given, so a deadline computed once as
        ``now + delay`` lands on that same float however late it is
        pushed.  An instant before ``now``, or NaN, is rejected.
        """
        if not when >= self._now:  # also rejects NaN
            raise ValueError(f"invalid instant {when!r} (now={self._now})")
        handle = _Callback(fn)
        self._seq += 1
        heapq.heappush(self._queue, (when, priority, self._seq, handle))
        return handle

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

        # The hot loop: peek() and fire one entry per iteration, but
        # with the heap scanned once, the heap/pop lookups hoisted, and
        # the stop-event check reduced to a slot load.  The simulation
        # spends most of its wall-clock here.
        q = self._queue
        pop = heapq.heappop
        callback = _Callback
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
            if event.__class__ is callback:
                # A handle cannot be the stop event, so firing one
                # leaves the stop check's answer as it was.
                event.processed = True
                event.fn()
                if self._crashed is not None:
                    raise self._crashed
                continue
            callbacks, event.callbacks = event.callbacks, None
            for fn in callbacks:
                fn(event)
                if self._crashed is not None:
                    raise self._crashed
            if stop_event is not None and stop_event.callbacks is None:
                if stop_event._ok:
                    return stop_event._value
                raise stop_event._value
        if stop_event is not None:
            raise Deadlock(
                self.unfinished_processes(),
                detail="calendar drained before the awaited event fired",
            )
        if stop_time != float("inf"):
            self._now = stop_time
        return None
