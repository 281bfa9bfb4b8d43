"""Transport contract and the result record every transport produces.

Timing follows the paper's measurement protocol:

* Section II experiments "specifically omit file open and close
  times" — use :attr:`OutputResult.write_time`.
* Section IV experiments report "the actual write, flush, and file
  close operations" with "an explicit flush ... prior to the file
  close" — use :attr:`OutputResult.reported_time` (write + flush +
  close, open excluded).
"""

from __future__ import annotations

import abc
from collections.abc import Sequence
from dataclasses import dataclass, field
from numbers import Integral
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.index import GlobalIndex
from repro.errors import OstFailedError, TransportError, WriteTimeout
from repro.sim.events import AllSettled

if TYPE_CHECKING:  # pragma: no cover
    from repro.apps.base import AppKernel
    from repro.machines.base import Machine

__all__ = [
    "Transport",
    "TransportRun",
    "OutputResult",
    "WriterTiming",
    "WriterTimings",
    "osts_used",
]


@dataclass(frozen=True)
class WriterTiming:
    """Per-writer timing of the data write itself."""

    rank: int
    start: float  # when the writer began moving bytes
    end: float  # when its last byte was absorbed
    nbytes: float
    target_group: int = -1
    adaptive: bool = False

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def bandwidth(self) -> float:
        d = self.duration
        return self.nbytes / d if d > 0 else float("inf")


class WriterTimings(Sequence):
    """One run's per-writer timings as per-rank columns.

    A transport sizes it to the communicator and calls :meth:`set` as
    each writer lands (a later call for the same rank replaces the
    earlier one).  As a sequence it is the timed writers in rank order;
    indexing or iterating builds a :class:`WriterTiming` equal to the
    one the transport described.  ``start[r] is None`` marks a rank
    with no timing.
    """

    __slots__ = ("start", "end", "nbytes", "target_group", "adaptive",
                 "_ranks")

    def __init__(self, n_ranks: int = 0):
        self.start: List[Optional[float]] = [None] * n_ranks
        self.end: List[float] = [0.0] * n_ranks
        self.nbytes: List[float] = [0.0] * n_ranks
        self.target_group: List[int] = [-1] * n_ranks
        self.adaptive: List[bool] = [False] * n_ranks
        self._ranks: Optional[List[int]] = None  # timed ranks, cached

    def set(self, rank: int, start: float, end: float, nbytes: float,
            target_group: int = -1, adaptive: bool = False) -> None:
        """Record (or replace) ``rank``'s timing."""
        if self.start[rank] is None:
            self._ranks = None
        self.start[rank] = start
        self.end[rank] = end
        self.nbytes[rank] = nbytes
        self.target_group[rank] = target_group
        self.adaptive[rank] = adaptive

    def has(self, rank: int) -> bool:
        """Has ``rank`` a timing?"""
        return self.start[rank] is not None

    @property
    def ranks(self) -> List[int]:
        """The timed ranks, ascending."""
        if self._ranks is None:
            self._ranks = [r for r, t in enumerate(self.start)
                           if t is not None]
        return self._ranks

    def durations(self) -> List[float]:
        """``end - start`` per timed writer, in rank order."""
        start, end = self.start, self.end
        return [end[r] - start[r] for r in self.ranks]

    def bandwidths(self) -> List[float]:
        """:attr:`WriterTiming.bandwidth` per timed writer."""
        nbytes = self.nbytes
        return [nbytes[r] / d if d > 0 else float("inf")
                for r, d in zip(self.ranks, self.durations())]

    def total_bytes(self) -> float:
        """Σ nbytes over the timed writers, in rank order."""
        nbytes = self.nbytes
        return sum(nbytes[r] for r in self.ranks)

    def __len__(self) -> int:
        return len(self.ranks)

    def __getitem__(self, i: int) -> WriterTiming:
        r = self.ranks[i]
        return WriterTiming(r, self.start[r], self.end[r], self.nbytes[r],
                            self.target_group[r], self.adaptive[r])

    def __iter__(self):
        return map(self.__getitem__, range(len(self.ranks)))

    def __eq__(self, other) -> bool:
        if isinstance(other, (WriterTimings, list, tuple)):
            return list(self) == list(other)
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        return f"WriterTimings({list(self)!r})"


@dataclass
class OutputResult:
    """Everything one output operation produced.

    ``per_writer`` is the timed writers in rank order, as the
    :class:`WriterTimings` columns the transport filled; iterating it
    builds one :class:`WriterTiming` per writer.
    """

    transport: str
    n_writers: int
    total_bytes: float
    open_time: float
    write_time: float
    flush_time: float
    close_time: float
    per_writer: WriterTimings = field(default_factory=WriterTimings)
    files: List[str] = field(default_factory=list)
    index: Optional[GlobalIndex] = None
    n_adaptive_writes: int = 0
    messages_sent: int = 0
    coordinator_messages: int = 0
    extra: Dict[str, float] = field(default_factory=dict)

    @property
    def reported_time(self) -> float:
        """Write + flush + close — the paper's Section IV metric."""
        return self.write_time + self.flush_time + self.close_time

    @property
    def aggregate_bandwidth(self) -> float:
        """Bytes/s over the reported (write+flush+close) window."""
        t = self.reported_time
        return self.total_bytes / t if t > 0 else float("inf")

    @property
    def write_bandwidth(self) -> float:
        """Bytes/s over the write window only — the Section II metric."""
        t = self.write_time
        return self.total_bytes / t if t > 0 else float("inf")

    @property
    def per_writer_bandwidths(self) -> np.ndarray:
        return np.array(self.per_writer.bandwidths())

    @property
    def per_writer_durations(self) -> np.ndarray:
        return np.array(self.per_writer.durations())

    @property
    def imbalance_factor(self) -> float:
        """Slowest / fastest per-writer write time (paper, Section II)."""
        d = self.per_writer_durations
        if d.size == 0:
            return float("nan")
        fastest = float(d.min())
        if fastest <= 0:
            return float("inf")
        return float(d.max()) / fastest

    def validate(self) -> None:
        """Sanity invariants every transport result must satisfy."""
        if self.total_bytes < 0:
            raise ValueError("negative total_bytes")
        for name in ("open_time", "write_time", "flush_time", "close_time"):
            if getattr(self, name) < 0:
                raise ValueError(f"negative {name}")
        if len(self.per_writer) != self.n_writers:
            raise ValueError(
                f"{len(self.per_writer)} writer timings for "
                f"{self.n_writers} writers"
            )
        written = self.per_writer.total_bytes()
        if abs(written - self.total_bytes) > max(1.0, 1e-6 * self.total_bytes):
            raise ValueError(
                f"writer bytes {written} != total {self.total_bytes}"
            )


@dataclass
class TransportRun:
    """A launched-but-not-collected output operation.

    ``done`` is the simulation process driving the run: the caller
    decides when (and with whom) to drive the calendar —
    ``env.run(until=done)`` for a solo run, or one ``all_of`` over many
    tenants' handles for a multi-tenant run on a shared machine.
    ``collect()`` is called after ``done`` settles; it assembles the
    validated :class:`OutputResult` (or raises
    :class:`~repro.errors.TransportError` with accounting, exactly as
    :meth:`Transport.run` would).
    """

    done: object  # the simulation Process
    collect: "Callable[[], OutputResult]"


def osts_used(requested: Optional[int], default: int,
              machine: "Machine") -> int:
    """Storage targets an output spreads over.

    ``requested`` is a transport's ``n_osts_used`` option; only None
    selects ``default``.  A non-integer, or anything outside
    ``1..machine.n_osts`` (0 included), is a :class:`ValueError`.
    """
    n = default if requested is None else requested
    if not isinstance(n, Integral):
        raise ValueError(f"n_osts_used must be an integer, got {n!r}")
    if not 1 <= n <= machine.n_osts:
        raise ValueError(
            f"n_osts_used {n} out of range for pool of {machine.n_osts}"
        )
    return n


class Transport(abc.ABC):
    """An IO method: turns an output spec into data on the file system.

    Instances are stateless w.r.t. simulations: :meth:`run` may be
    called repeatedly against different machines.

    Concrete transports implement :meth:`launch`, which wires the
    operation's simulated processes into the machine's calendar and
    returns a :class:`TransportRun` without advancing simulated time.
    :meth:`run` is the classic blocking form — launch, drive the
    calendar to completion, collect.  Multi-tenant harnesses call
    :meth:`launch` directly so several transports share one calendar.

    Every transport ends a run the same way: :meth:`_join` waits for
    its processes (bounded by the run timeout under a fault plan),
    :meth:`_flush_close` flushes then closes its files, and an unclean
    faulted run raises through :meth:`_raise_unclean`.
    """

    name: str = "base"
    #: Prefix of the simulation process names a launch creates.
    tag: str = "base"

    @abc.abstractmethod
    def launch(
        self,
        machine: "Machine",
        app: "AppKernel",
        output_name: str = "output",
    ) -> TransportRun:
        """Wire up one output operation; do not advance simulated time."""

    def run(
        self,
        machine: "Machine",
        app: "AppKernel",
        output_name: str = "output",
    ) -> OutputResult:
        """Execute one full output operation; blocks the (real) caller
        until the simulated operation has completed."""
        handle = self.launch(machine, app, output_name)
        machine.env.run(until=handle.done)
        return handle.collect()

    def _join(self, machine: "Machine", live: Callable[[], list]):
        """Wait for a run's processes; True if the run timeout cut it.

        ``live()`` lists the run's processes still alive.  It is read
        again after each wake, so a process spawned meanwhile (an
        adopted sub-coordinator) is waited on too.  Under a fault plan
        the wait is bounded by ``policy.run_timeout``: when it fires,
        whatever is still alive is killed.
        """
        env = machine.env
        faults = machine.faults
        deadline = (None if faults is None
                    else env.timeout(faults.policy.run_timeout))
        pending = live()
        while pending:
            settled = AllSettled(env, pending)
            if deadline is None:
                yield settled
            else:
                yield env.any_of([settled, deadline])
                if deadline.processed and live():
                    for p in live():
                        p.kill("run timeout backstop")
                    return True
            pending = live()
        return False

    def _flush_close(self, machine: "Machine", files: list,
                     order: Optional[str], failures: List[str]):
        """Flush, then close, ``files``; return ``(flush_end, close_end)``.

        ``order`` is None (no flush), ``"inline"`` (file after file) or
        ``"concurrent"`` (one flush process per file).  Under a fault
        plan each flush is bounded by ``policy.flush_timeout``; a flush
        that fails or times out is appended to ``failures``.
        """
        env = machine.env
        fs = machine.fs
        faults = machine.faults
        timeout = None if faults is None else faults.policy.flush_timeout

        def flush(f):
            try:
                yield from fs.flush(f, timeout=timeout)
            except (OstFailedError, WriteTimeout) as exc:
                failures.append(f"{f.path}: {exc}")

        if order == "inline":
            for f in files:
                yield from flush(f)
        elif order == "concurrent":
            procs = [env.process(flush(f), name=f"{self.tag}.flush")
                     for f in files]
            if procs:
                yield AllSettled(env, procs)
        flush_end = env.now
        for f in files:
            yield from fs.close(f)
        return flush_end, env.now

    def _raise_unclean(self, machine: "Machine", result: OutputResult,
                       timed_out: bool, reasons: List[str]):
        """Raise the :class:`~repro.errors.TransportError` of an
        unclean run.

        The run-timeout reason, if the timeout fired, comes before
        ``reasons``; the byte accounting is ``result.extra``'s
        ``bytes_durable``, ``bytes_lost`` and ``bytes_corrupt``, and
        ``result`` rides along as the partial result.
        """
        if timed_out:
            reasons = [f"run timeout ({machine.faults.policy.run_timeout:g}s)"
                       " hit", *reasons]
        if machine.env.tracer is not None:
            machine.env.tracer.close_open_spans()  # aborts close their spans
        extra = result.extra
        raise TransportError(
            f"{result.transport} output did not complete cleanly: "
            + "; ".join(reasons),
            bytes_durable=extra["bytes_durable"],
            bytes_lost=extra["bytes_lost"], partial=result,
            bytes_corrupt=extra["bytes_corrupt"],
        )

    def _watch_fabric(self, machine: "Machine") -> Tuple[int, int, int, int]:
        """Snapshot the fabric's churn counters at run start.

        :meth:`_finish` turns the snapshot into per-run deltas in
        ``result.extra`` — how many settles the run triggered, how many
        hit the allocator, and how many of those the incremental patch
        path / same-instant coalescing absorbed.  Group releases (N
        writers opening streams at one simulated instant) show up here
        as a large ``fabric_coalesced`` with a tiny ``fabric_reallocs``.
        The snapshot belongs to one launch: the caller keeps it and
        hands it back to :meth:`_finish`, so overlapping launches of
        one instance each report their own deltas.
        """
        fab = machine.fs.fabric
        return (
            fab.settle_count,
            fab.realloc_count,
            fab.incremental_count,
            fab.coalesced_count,
        )

    def _finish(
        self,
        machine: "Machine",
        result: OutputResult,
        fabric_snap: Tuple[int, int, int, int],
    ) -> OutputResult:
        fab = machine.fs.fabric
        settles, reallocs, incremental, coalesced = fabric_snap
        result.extra["fabric_settles"] = float(fab.settle_count - settles)
        result.extra["fabric_reallocs"] = float(fab.realloc_count - reallocs)
        result.extra["fabric_incremental"] = float(
            fab.incremental_count - incremental
        )
        result.extra["fabric_coalesced"] = float(
            fab.coalesced_count - coalesced
        )
        result.validate()
        # One-way recording into the telemetry registry: the registry
        # observes the result, never feeds anything back into it, so a
        # run with telemetry attached stays bit-identical to one
        # without (the determinism test compares whole OutputResults).
        reg = machine.env.metrics
        if reg is not None:
            t = result.transport
            for phase in ("open", "write", "flush", "close"):
                reg.histogram(
                    "transport.phase_seconds", transport=t, phase=phase
                ).observe(getattr(result, f"{phase}_time"))
            reg.counter("transport.bytes", transport=t).inc(
                result.total_bytes
            )
            reg.counter("transport.runs", transport=t).inc()
            reg.counter("transport.adaptive_writes", transport=t).inc(
                result.n_adaptive_writes
            )
            extra = result.extra
            for key, metric in (
                ("fault_retries", "transport.retries"),
                ("fault_aborts", "transport.aborts"),
                ("verify_failures", "transport.verify_failures"),
            ):
                v = extra.get(key)
                if v:
                    reg.counter(metric, transport=t).inc(float(v))
        return result
