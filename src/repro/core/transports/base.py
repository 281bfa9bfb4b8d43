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
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.index import GlobalIndex

if TYPE_CHECKING:  # pragma: no cover
    from repro.apps.base import AppKernel
    from repro.machines.base import Machine

__all__ = [
    "Transport",
    "TransportRun",
    "OutputResult",
    "WriterTiming",
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


@dataclass
class OutputResult:
    """Everything one output operation produced."""

    transport: str
    n_writers: int
    total_bytes: float
    open_time: float
    write_time: float
    flush_time: float
    close_time: float
    per_writer: List[WriterTiming] = field(default_factory=list)
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
        return np.array([w.bandwidth for w in self.per_writer])

    @property
    def per_writer_durations(self) -> np.ndarray:
        return np.array([w.duration for w in self.per_writer])

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
        written = sum(w.nbytes for w in self.per_writer)
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
    """

    name: str = "base"

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
        fabric_snap: Optional[Tuple[int, int, int, int]] = None,
    ) -> OutputResult:
        if fabric_snap is not None:
            fab = machine.fs.fabric
            settles, reallocs, incremental, coalesced = fabric_snap
            result.extra["fabric_settles"] = float(fab.settle_count - settles)
            result.extra["fabric_reallocs"] = float(
                fab.realloc_count - reallocs
            )
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
