"""Event primitives for the simulation kernel.

An :class:`Event` is a one-shot occurrence: it is *pending* until
triggered, then fires exactly once, delivering a value (or an exception)
to every registered callback.  Processes suspend on events by yielding
them; the kernel registers a resume callback.

Design notes
------------
Events are deliberately tiny — the data plane of the simulator (bulk
transfers) does not allocate one event per byte-range but is managed by
the vectorized flow network in :mod:`repro.net.fabric`; events only carry
control-plane occurrences (message deliveries, completions, state
changes), so allocation cost is not the bottleneck.

:meth:`Event.cancel` (and ``cancel`` on the handle that
:meth:`~repro.sim.engine.Environment.schedule_callback` returns, e.g.
the flow network's re-armed "next state change" timer) is the
supported way to withdraw a superseded calendar entry: the heap entry
is skipped lazily at pop time, so cancellation is O(1) and leaves no
tombstone to fire into a stale closure.
"""

from __future__ import annotations

from heapq import heappush
from typing import TYPE_CHECKING, Any, Callable, Iterable, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Environment

__all__ = [
    "Event",
    "Timeout",
    "Condition",
    "AnyOf",
    "AllOf",
    "AllSettled",
    "EventAborted",
]

_PENDING = object()


class EventAborted(Exception):
    """Raised inside a process waiting on an event that was failed."""

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot occurrence on the simulation calendar.

    Parameters
    ----------
    env:
        Owning environment.

    Attributes
    ----------
    callbacks:
        List of ``fn(event)`` invoked (in registration order) when the
        event fires.  ``None`` once processed — appending afterwards is a
        bug the kernel turns into an immediate error.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_scheduled", "_cancelled")

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: Optional[list] = []
        self._value: Any = _PENDING
        self._ok: Optional[bool] = None
        self._scheduled = False
        self._cancelled = False

    # -- state ---------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has a value (scheduled or processed)."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        return bool(self._ok)

    @property
    def value(self) -> Any:
        if self._value is _PENDING:
            raise RuntimeError("event value not yet available")
        return self._value

    # -- triggering ----------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with *value*."""
        if self._value is not _PENDING:
            raise RuntimeError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        self.env._schedule(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as failed; waiters see *exception* raised."""
        if self._value is not _PENDING:
            raise RuntimeError(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._ok = False
        self._value = exception
        self.env._schedule(self)
        return self

    def abort(self, cause: Any = None) -> "Event":
        """Convenience: fail with :class:`EventAborted`."""
        return self.fail(EventAborted(cause))

    def cancel(self) -> "Event":
        """Withdraw a scheduled event from the calendar.

        The heap entry is discarded lazily (the calendar skips it
        without advancing the clock), so cancelling the last pending
        event really does leave the calendar empty.  Cancelling an
        already-processed event is an error; cancelling twice is a
        no-op.
        """
        if self.processed:
            raise RuntimeError(f"{self!r} already processed")
        self._cancelled = True
        return self

    # -- chaining ------------------------------------------------------
    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        if self.callbacks is None:
            raise RuntimeError(f"{self!r} already processed")
        self.callbacks.append(fn)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = (
            "pending"
            if self._value is _PENDING
            else ("ok" if self._ok else "failed")
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """Event that fires ``delay`` time units after creation.

    The canonical way for a process to let simulated time pass::

        yield env.timeout(3.5)
    """

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if not delay >= 0:  # also rejects NaN
            raise ValueError(f"invalid delay {delay!r}")
        # Inlined Event.__init__ + Environment._schedule: a timeout is
        # born triggered-and-scheduled, and this constructor is the
        # single hottest allocation site in the kernel (every process
        # hop makes one), so it pays to skip the generic paths.
        self.env = env
        self.callbacks = []
        self._ok = True
        self._value = value
        self._scheduled = True
        self._cancelled = False
        self.delay = delay
        env._seq += 1
        heappush(env._queue, (env._now + delay, 1, env._seq, self))


class Condition(Event):
    """Composite event over a set of sub-events.

    Fires when ``evaluate(events, n_fired)`` returns True.  The value is
    a dict mapping each *triggered-so-far* sub-event to its value, in
    firing order.  A failing sub-event fails the condition.
    """

    __slots__ = ("events", "_fired")

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env)
        self.events = tuple(events)
        self._fired: list = []
        for ev in self.events:
            if ev.env is not env:
                raise ValueError("all sub-events must share one environment")
        if not self.events:
            self.succeed({})
            return
        for ev in self.events:
            if ev.processed:
                self._on_sub_event(ev)
            else:
                ev.add_callback(self._on_sub_event)

    def _evaluate(self, n_fired: int) -> bool:
        raise NotImplementedError

    def _on_sub_event(self, ev: Event) -> None:
        if self.triggered:
            return
        if not ev.ok:
            self.fail(ev._value)
            return
        self._fired.append(ev)
        if self._evaluate(len(self._fired)):
            self.succeed(self._collect())

    def _collect(self) -> dict:
        return {ev: ev._value for ev in self._fired}


class AllOf(Condition):
    """Fires once every sub-event has fired."""

    __slots__ = ()

    def _evaluate(self, n_fired: int) -> bool:
        return n_fired == len(self.events)


class AnyOf(Condition):
    """Fires as soon as any sub-event fires."""

    __slots__ = ()

    def _evaluate(self, n_fired: int) -> bool:
        return n_fired >= 1


class AllSettled(Condition):
    """Fires once every sub-event has *settled* — succeeded or failed.

    Unlike :class:`AllOf`, a failing sub-event does not fail the
    condition: it is collected like any other outcome.  The value maps
    each sub-event to its value (the exception instance for failed
    sub-events), in settling order.  This is the join primitive for
    fault-tolerant shutdown: "wait for every worker to finish, however
    it finished".
    """

    __slots__ = ()

    def _evaluate(self, n_fired: int) -> bool:
        return n_fired == len(self.events)

    def _on_sub_event(self, ev: Event) -> None:
        if self.triggered:
            return
        self._fired.append(ev)
        if self._evaluate(len(self._fired)):
            self.succeed(self._collect())
