"""Generator-based simulation processes.

A :class:`Process` drives a Python generator: each value the generator
yields must be an :class:`~repro.sim.events.Event`; the process suspends
until that event fires, then resumes with the event's value (or with the
event's exception raised at the yield point).  A process is itself an
event that fires when the generator returns — so processes can wait on
each other (fork/join) simply by yielding the child process.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Generator, Optional

from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Environment

__all__ = ["Process", "ProcessKilled", "Mailbox"]


class ProcessKilled(Exception):
    """Failure value of a process that was forcibly killed."""


class Process(Event):
    """A running simulation process (also an event: fires on return).

    Parameters
    ----------
    env:
        Owning environment.
    generator:
        The generator to drive.
    name:
        Optional label for tracebacks and debugging.
    """

    __slots__ = ("generator", "name", "_waiting_on")

    def __init__(
        self,
        env: "Environment",
        generator: Generator[Event, Any, Any],
        name: Optional[str] = None,
    ):
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError(
                f"process body must be a generator, got {type(generator).__name__}"
            )
        super().__init__(env)
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self._waiting_on: Optional[Event] = None
        env._live.add(self)
        # Bootstrap: resume once at the current sim time.
        env.schedule_callback(0.0, self._start)

    @property
    def is_alive(self) -> bool:
        return not self.triggered

    # -- control -------------------------------------------------------
    def kill(self, cause: Any = None, cancel_wait: bool = False) -> None:
        """Terminate the process; its event fails with ProcessKilled.

        With ``cancel_wait=True`` the event the process was parked on
        is additionally :meth:`~repro.sim.events.Event.cancel`-ed,
        removing its calendar entry instead of leaving a stale wakeup
        to fire into nothing.  Only safe when the caller knows the
        event is private to this process (e.g. its own heartbeat
        timeout) — cancelling a shared event would starve the other
        waiters.
        """
        if not self.is_alive:
            return
        waited = self._waiting_on
        self._waiting_on = None
        if waited is not None and waited.callbacks is not None:
            try:
                waited.callbacks.remove(self._resume)
            except ValueError:
                pass
            if cancel_wait and not waited.processed:
                waited.cancel()
        self.generator.close()
        self.fail(ProcessKilled(cause))
        self.env._live.discard(self)

    # -- kernel resume paths --------------------------------------------
    def _start(self) -> None:
        if self.triggered:  # killed before its first step
            return
        self._step()

    def _resume(self, event: Event) -> None:
        if self._waiting_on is not event:
            # Killed by an earlier callback of the same event: the
            # event's callback list was already taken, so kill() could
            # not detach this one.
            return
        self._waiting_on = None
        if event.ok:
            self._step(send=event._value)
        else:
            self._step(throw=event._value)

    def _step(self, send: Any = None, throw: Optional[BaseException] = None) -> None:
        env = self.env
        try:
            if throw is not None:
                target = self.generator.throw(throw)
            else:
                target = self.generator.send(send)
        except StopIteration as stop:
            self.succeed(stop.value)
            env._live.discard(self)
            return
        except BaseException as exc:
            self.fail(exc)
            env._live.discard(self)
            env._crash(self, exc)
            return

        if not isinstance(target, Event):
            err = TypeError(
                f"{self.name}: processes must yield Event instances, "
                f"got {target!r}"
            )
            self.generator.close()
            self.fail(err)
            env._live.discard(self)
            env._crash(self, err)
            return
        if target.env is not env:
            err = ValueError(f"{self.name}: yielded event from foreign environment")
            self.generator.close()
            self.fail(err)
            env._live.discard(self)
            env._crash(self, err)
            return

        self._waiting_on = target
        if target.processed:
            # Already fired: resume on the next scheduling round (keeps
            # resume ordering FIFO and avoids unbounded recursion).
            kick = Event(env)
            kick._ok = target._ok
            kick._value = target._value
            self._waiting_on = kick
            kick.add_callback(self._resume)
            env._schedule(kick)
        else:
            target.add_callback(self._resume)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "alive" if self.is_alive else "done"
        return f"<Process {self.name} {state}>"


class Mailbox:
    """Single-consumer FIFO queue for cohort-style processes.

    The batched adaptive protocol replaces thousands of per-rank
    processes with one cohort process per sub-coordinator; the cohort
    multiplexes *every* input — delivered MPI messages, stream-member
    boundary notifications, delayed self-wakeups — through one mailbox
    instead of one suspended process per source.  ``put`` is callable
    from plain callbacks (no process context needed); ``get`` returns
    an event the consumer yields on, pre-succeeded when items are
    already queued so the consumer never blocks behind an empty poll.

    Deliberately single-consumer: at most one outstanding ``get`` at a
    time, which keeps wakeup ordering trivially FIFO and deterministic.
    """

    __slots__ = ("env", "_items", "_waiter")

    def __init__(self, env: "Environment"):
        self.env = env
        self._items: deque = deque()
        self._waiter: Optional[Event] = None

    def put(self, item: Any) -> None:
        """Enqueue an item; wakes the waiting consumer, if any."""
        waiter = self._waiter
        if waiter is not None:
            self._waiter = None
            waiter.succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        """Event firing with the next item (immediately if queued)."""
        if self._waiter is not None:
            raise RuntimeError("mailbox already has a pending consumer")
        ev = Event(self.env)
        if self._items:
            ev.succeed(self._items.popleft())
        else:
            self._waiter = ev
        return ev
