"""The simulated communicator."""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Deque, Dict, List, Optional, Tuple

from repro.net.latency import MessageLatencyModel
from repro.sim.events import Event
from repro.trace.tracer import rank_track

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Environment

__all__ = ["ANY_TAG", "Message", "SimComm"]

ANY_TAG = -1

_CONTROL_MSG_BYTES = 64.0  # default on-wire size of a control message


class Message:
    """A delivered message (a plain record, one per delivery)."""

    __slots__ = ("source", "dest", "tag", "payload", "sent_at",
                 "delivered_at")

    def __init__(self, source: int, dest: int, tag: int, payload: Any,
                 sent_at: float, delivered_at: float):
        self.source = source
        self.dest = dest
        self.tag = tag
        self.payload = payload
        self.sent_at = sent_at
        self.delivered_at = delivered_at


class _Inbox:
    """Per-rank mailbox with MPI-style tag matching."""

    __slots__ = ("pending", "waiters")

    def __init__(self):
        self.pending: Deque[Message] = deque()
        # waiters: (tag_filter, event)
        self.waiters: List[Tuple[int, Event]] = []

    def deliver(self, msg: Message) -> None:
        for i, (tag, ev) in enumerate(self.waiters):
            if tag == ANY_TAG or msg.tag == tag:
                del self.waiters[i]
                ev.succeed(msg)
                return
        self.pending.append(msg)

    def post_recv(self, env, tag: int) -> Event:
        ev = Event(env)
        for i, msg in enumerate(self.pending):
            if tag == ANY_TAG or msg.tag == tag:
                del self.pending[i]
                ev.succeed(msg)
                return ev
        self.waiters.append((tag, ev))
        return ev


class SimComm:
    """A communicator over *n_ranks* simulated processes.

    Parameters
    ----------
    env:
        Simulation environment.
    n_ranks:
        Communicator size.
    rank_base:
        The host rank of this communicator's rank 0, which names its
        trace tracks: 0 on a whole machine, a tenant's first rank on a
        shared one.
    latency:
        alpha-beta model for control messages.

    A rank's inbox is made on the first message sent to it or the
    first receive it posts, so ranks that never talk cost nothing.
    """

    def __init__(
        self,
        env: "Environment",
        n_ranks: int,
        rank_base: int,
        latency: Optional[MessageLatencyModel] = None,
    ):
        if n_ranks < 1:
            raise ValueError("n_ranks must be >= 1")
        self.env = env
        self.n_ranks = n_ranks
        self.rank_base = rank_base
        self.latency = latency if latency is not None else MessageLatencyModel()
        self._inboxes: Dict[int, _Inbox] = {}
        self.messages_sent = 0
        self.messages_by_rank: Dict[int, int] = {}
        # Optional fault hook (a FaultInjector): consulted per send for
        # loss/extra delay.  None in fault-free runs — zero overhead.
        self.faults = None

    def _check_rank(self, rank: int, what: str = "rank") -> None:
        if not 0 <= rank < self.n_ranks:
            raise ValueError(f"{what} {rank} out of range [0, {self.n_ranks})")

    def _inbox(self, rank: int) -> _Inbox:
        box = self._inboxes.get(rank)
        if box is None:
            box = self._inboxes[rank] = _Inbox()
        return box

    # -- point to point ------------------------------------------------------
    def send(
        self,
        source: int,
        dest: int,
        payload: Any,
        tag: int = 0,
        nbytes: float = _CONTROL_MSG_BYTES,
    ) -> None:
        """Asynchronous send: the message lands in ``dest``'s inbox
        after the modelled latency (MPI_Isend-and-forget).

        Returns nothing; a message costs one calendar entry, its
        delivery.
        """
        self._check_rank(source, "source")
        self._check_rank(dest, "dest")
        env = self.env
        sent_at = env.now
        self.messages_sent += 1
        self.messages_by_rank[source] = self.messages_by_rank.get(source, 0) + 1
        delay = self.latency.point_to_point(nbytes)
        if self.faults is not None:
            extra = self.faults.perturb_send(source, dest)
            if extra is None:
                # Dropped on the wire: sends are fire-and-forget, so the
                # message simply never arrives.
                return
            delay += extra

        def deliver() -> None:
            now = env.now
            self._inbox(dest).deliver(
                Message(source, dest, tag, payload, sent_at, now)
            )
            tr = env.tracer
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
                    tid=rank_track(self.rank_base, dest),
                    ts=sent_at,
                    dur=now - sent_at,
                    args={"source": source, "dest": dest, "tag": tag},
                )

        env.schedule_callback(delay, deliver)

    def recv(self, rank: int, tag: int = ANY_TAG) -> Event:
        """Event yielding *rank*'s next :class:`Message` with *tag*
        (any tag for ``ANY_TAG``), whichever rank sent it."""
        self._check_rank(rank)
        return self._inbox(rank).post_recv(self.env, tag)

    def inbox_size(self, rank: int) -> int:
        self._check_rank(rank)
        box = self._inboxes.get(rank)
        return 0 if box is None else len(box.pending)
