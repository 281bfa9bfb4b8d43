"""The simulated communicator."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Deque, Dict, List, Optional, Tuple

from repro.net.latency import MessageLatencyModel
from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Environment

__all__ = ["ANY_SOURCE", "ANY_TAG", "Message", "SimComm"]

ANY_SOURCE = -1
ANY_TAG = -1

_CONTROL_MSG_BYTES = 64.0  # default on-wire size of a control message


@dataclass(frozen=True)
class Message:
    """A delivered message."""

    source: int
    dest: int
    tag: int
    payload: Any
    sent_at: float
    delivered_at: float


class _Inbox:
    """Per-rank mailbox with MPI-style (source, tag) matching."""

    __slots__ = ("pending", "waiters")

    def __init__(self):
        self.pending: Deque[Message] = deque()
        # waiters: (source_filter, tag_filter, event)
        self.waiters: List[Tuple[int, int, Event]] = []

    @staticmethod
    def _matches(msg: Message, source: int, tag: int) -> bool:
        return (source == ANY_SOURCE or msg.source == source) and (
            tag == ANY_TAG or msg.tag == tag
        )

    def deliver(self, msg: Message) -> None:
        for i, (src, tag, ev) in enumerate(self.waiters):
            if self._matches(msg, src, tag):
                del self.waiters[i]
                ev.succeed(msg)
                return
        self.pending.append(msg)

    def post_recv(self, env, source: int, tag: int) -> Event:
        ev = Event(env)
        for i, msg in enumerate(self.pending):
            if self._matches(msg, source, tag):
                del self.pending[i]
                ev.succeed(msg)
                return ev
        self.waiters.append((source, tag, ev))
        return ev


class SimComm:
    """A communicator over *n_ranks* simulated processes.

    Parameters
    ----------
    env:
        Simulation environment.
    n_ranks:
        Communicator size.
    latency:
        alpha-beta model for control messages.
    """

    def __init__(
        self,
        env: "Environment",
        n_ranks: int,
        latency: Optional[MessageLatencyModel] = None,
    ):
        if n_ranks < 1:
            raise ValueError("n_ranks must be >= 1")
        self.env = env
        self.n_ranks = n_ranks
        self.latency = latency if latency is not None else MessageLatencyModel()
        self._inboxes = [_Inbox() for _ in range(n_ranks)]
        self._barriers: Dict[str, Tuple[int, Event]] = {}
        self.messages_sent = 0
        self.messages_by_rank: Dict[int, int] = {}
        # Optional fault hook (a FaultInjector): consulted per send for
        # loss/extra delay.  None in fault-free runs — zero overhead.
        self.faults = None

    def _check_rank(self, rank: int, what: str = "rank") -> None:
        if not 0 <= rank < self.n_ranks:
            raise ValueError(f"{what} {rank} out of range [0, {self.n_ranks})")

    # -- point to point ------------------------------------------------------
    def send(
        self,
        source: int,
        dest: int,
        payload: Any,
        tag: int = 0,
        nbytes: float = _CONTROL_MSG_BYTES,
    ) -> Event:
        """Asynchronous send; the returned event fires at delivery.

        Callers normally do not wait on it (MPI_Isend-and-forget); the
        message lands in ``dest``'s inbox after the modelled latency.
        """
        self._check_rank(source, "source")
        self._check_rank(dest, "dest")
        sent_at = self.env.now
        self.messages_sent += 1
        self.messages_by_rank[source] = self.messages_by_rank.get(source, 0) + 1
        delay = self.latency.point_to_point(nbytes)
        done = Event(self.env)
        if self.faults is not None:
            extra = self.faults.perturb_send(source, dest)
            if extra is None:
                # Dropped on the wire: sends are fire-and-forget, so the
                # message simply never arrives (the returned event stays
                # pending forever — nobody waits on it).
                return done
            delay += extra

        def deliver() -> None:
            msg = Message(
                source=source,
                dest=dest,
                tag=tag,
                payload=payload,
                sent_at=sent_at,
                delivered_at=self.env.now,
            )
            self._inboxes[dest].deliver(msg)
            tr = self.env.tracer
            if tr is not None:
                # One complete span per message, send -> delivery.
                name = (
                    payload.__class__.__name__
                    if payload is not None
                    else "message"
                )
                tr.complete(
                    name,
                    cat="mpi",
                    pid="mpi",
                    tid=f"rank {dest}",
                    ts=sent_at,
                    dur=self.env.now - sent_at,
                    args={"source": source, "dest": dest, "tag": tag},
                )
            done.succeed(msg)

        self.env.schedule_callback(delay, deliver)
        return done

    def recv(
        self, rank: int, source: int = ANY_SOURCE, tag: int = ANY_TAG
    ) -> Event:
        """Event yielding the next matching :class:`Message` for *rank*."""
        self._check_rank(rank)
        if source != ANY_SOURCE:
            self._check_rank(source, "source")
        return self._inboxes[rank].post_recv(self.env, source, tag)

    def inbox_size(self, rank: int) -> int:
        self._check_rank(rank)
        return len(self._inboxes[rank].pending)

    # -- collectives -----------------------------------------------------------
    def barrier(self, rank: int, name: str = "default", n: Optional[int] = None):
        """Generator: block until all *n* participants arrive.

        Distinct synchronization points must use distinct ``name``s (or
        a generation suffix) — like MPI, barriers on one communicator
        must be called in the same order by all participants.
        """
        self._check_rank(rank)
        count = self.n_ranks if n is None else n
        entry = self._barriers.get(name)
        if entry is None:
            release = Event(self.env)
            arrived = 1
        else:
            arrived, release = entry
            arrived += 1
        if arrived == count:
            self._barriers.pop(name, None)
            # All present: release everyone after a tree latency.
            delay = self.latency.tree_collective(0.0, count)
            self.env.schedule_callback(delay, lambda: release.succeed())
        else:
            self._barriers[name] = (arrived, release)
        yield release

    def bcast(self, rank: int, root: int, value: Any = None, name: str = "bcast"):
        """Generator: broadcast ``value`` from root; returns it on all ranks.

        Implemented as a named rendezvous with tree-collective timing.
        """
        self._check_rank(rank)
        self._check_rank(root, "root")
        key = f"__bcast__{name}"
        entry = self._barriers.get(key)
        if entry is None:
            entry = [0, Event(self.env), None]
        arrived, release, stored = entry
        arrived += 1
        if rank == root:
            stored = value
        if arrived == self.n_ranks:
            self._barriers.pop(key, None)
            delay = self.latency.tree_collective(
                _CONTROL_MSG_BYTES, self.n_ranks
            )
            payload = stored
            self.env.schedule_callback(
                delay, lambda: release.succeed(payload)
            )
        else:
            self._barriers[key] = [arrived, release, stored]
        result = yield release
        return result
