"""Waitable container: Resource.

A counted resource with FIFO admission; the metadata server's
admission tokens are one (MPI mailboxes are not: they live in
:mod:`repro.mpi.comm`).
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque

from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Environment

__all__ = ["Resource"]


class Resource:
    """Counted resource with FIFO admission (like a semaphore).

    Usage::

        req = resource.request()
        yield req
        try:
            ...critical section...
        finally:
            resource.release()
    """

    def __init__(self, env: "Environment", capacity: int = 1):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.env = env
        self.capacity = capacity
        self._in_use = 0
        self._waiters: Deque[Event] = deque()

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def queue_length(self) -> int:
        return len(self._waiters)

    def request(self) -> Event:
        ev = Event(self.env)
        if self._in_use < self.capacity:
            self._in_use += 1
            ev.succeed()
        else:
            self._waiters.append(ev)
        return ev

    def release(self) -> None:
        if self._in_use <= 0:
            raise RuntimeError("release() without matching request()")
        if self._waiters:
            # Hand the slot directly to the next waiter.
            self._waiters.popleft().succeed()
        else:
            self._in_use -= 1
