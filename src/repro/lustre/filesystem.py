"""The file system facade: namespace, client write/read/flush path.

Ties together the OST pool (sink side), the compute topology (source
side), the flow network, the stripe allocator and the metadata server.
All data movement initiated here are fluid flows on the fabric; all
metadata operations queue at the MDS.

Write semantics mirror a real Lustre client: a completed write means
the bytes were *absorbed* (they reached the storage target's cache);
:meth:`FileSystem.flush` additionally waits until the absorbed bytes
have drained to disk — the paper inserts exactly such an explicit
flush before close "to ensure accurate measurements".
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Generator,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.errors import (
    FileExistsInNamespace,
    FileNotFoundInNamespace,
    FileSystemError,
    OstFailedError,
    StripeLimitExceeded,
    WriteTimeout,
)
from repro.lustre.file import SimFile, StoredBlock, WriteRecord
from repro.lustre.layout import StripeLayout
from repro.lustre.mds import MetadataServer
from repro.lustre.ost import OstPool, OstState
from repro.net.fabric import FlowNetwork
from repro.sim.events import Event
from repro.units import MB

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Environment

__all__ = ["Blocks", "FileSystem", "PendingWrite"]

#: The variable blocks one write carries: ``(sizes, checksums)``, laid
#: back to back from the write's offset (one rank's output in the
#: application's variable order; see ``AppKernel.blocks_of``).
Blocks = Tuple[Sequence[float], Sequence[Optional[int]]]

_FLUSH_EPS = 64.0  # bytes of drain slack considered "flushed"


class PendingWrite:
    """A write :meth:`FileSystem.start_write` started.

    ``flows`` are its flows' completion events (none when it moves no
    bytes) and ``timer`` its deadline, if it has one.  ``wait`` is the
    event its waiter waits on and ``done`` the one that fires once
    every flow has landed; :meth:`FileSystem.write` or
    :meth:`FileSystem.when_written` sets both.
    """

    __slots__ = ("f", "offset", "nbytes", "writer", "timeout", "start",
                 "flows", "fids", "timer", "done", "wait")

    def __init__(self, f: SimFile, offset: float, nbytes: float,
                 writer: Optional[int], timeout: Optional[float],
                 start: float):
        self.f = f
        self.offset = offset
        self.nbytes = nbytes
        self.writer = writer
        self.timeout = timeout
        self.start = start
        self.flows: List[Event] = []
        self.fids: List[int] = []
        self.timer = self.done = self.wait = None


class FileSystem:
    """A mounted parallel file system bound to one simulation.

    Parameters
    ----------
    env:
        Simulation environment.
    pool:
        The OST pool (sink side of the fabric).
    source_capacities:
        Per-compute-node NIC capacities (bytes/s) — the source side.
    max_stripe_count:
        Per-file stripe cap; 160 models Lustre 1.6 (the paper's
        structural limit for single-file output).
    default_stripe_size:
        Stripe size used when ``create`` is not told otherwise.
    per_stream_cap:
        Client single-stream ceiling (bytes/s); bounds what one writer
        can push to one OST regardless of idle capacity.
    mds:
        Metadata server; a default one is built if omitted.
    """

    #: Guard: one logical write may fan out to at most this many
    #: per-OST flows.  Spraying every write over hundreds of OSTs is
    #: both unrealistic (real clients stream RPCs per object) and a
    #: simulation DoS, so we fail loudly instead.
    max_flows_per_write = 32

    def __init__(
        self,
        env: "Environment",
        pool: OstPool,
        source_capacities: np.ndarray,
        max_stripe_count: int = 160,
        default_stripe_size: float = 1.0 * MB,
        per_stream_cap: float = float("inf"),
        mds: Optional[MetadataServer] = None,
    ):
        if max_stripe_count < 1:
            raise ValueError("max_stripe_count must be >= 1")
        if not default_stripe_size > 0:
            raise ValueError("default_stripe_size must be positive")
        self.env = env
        self.pool = pool
        self.fabric = FlowNetwork(
            env, source_capacities, pool, flow_cap=per_stream_cap
        )
        pool.bind(env, self.fabric.invalidate)
        self.mds = mds if mds is not None else MetadataServer(env)
        self.max_stripe_count = int(max_stripe_count)
        self.default_stripe_size = float(default_stripe_size)
        self._namespace: Dict[str, SimFile] = {}
        self._alloc_cursor = 0
        self._store_seq = 0
        # Integrity hook: called with (file, [StoredBlock]) right after
        # a write registers its blocks (views built only when a hook is
        # installed).  The fault injector installs a
        # silent-corruption model here; None means pristine storage.
        self.corrupt_hook: Optional[
            Callable[[SimFile, List[StoredBlock]], None]
        ] = None
        # Instrument handles, resolved once from the environment's
        # registry so a snapshot carries them even at zero.  The ones
        # the recording sites check are None when telemetry is off.
        reg = env.metrics
        self._m_writes = self._m_flushes = None
        if reg is not None:
            self._m_writes = reg.counter("fs.writes")
            self._m_bytes_written = reg.counter("fs.bytes_written")
            self._m_write_seconds = reg.histogram("fs.write_seconds")
            self._m_flushes = reg.counter("fs.flushes")
            self._m_flush_seconds = reg.histogram("fs.flush_seconds")

    # -- namespace ---------------------------------------------------------
    @property
    def n_osts(self) -> int:
        return self.pool.n_sinks

    def exists(self, path: str) -> bool:
        return path in self._namespace

    def lookup(self, path: str) -> SimFile:
        """Namespace lookup with no metadata cost (for tests/tools)."""
        try:
            return self._namespace[path]
        except KeyError:
            raise FileNotFoundInNamespace(path) from None

    def listdir(self) -> List[str]:
        return sorted(self._namespace)

    def unlink(self, path: str) -> None:
        if path not in self._namespace:
            raise FileNotFoundInNamespace(path)
        del self._namespace[path]

    def allocate_osts(
        self, stripe_count: int, stripe_offset: Optional[int] = None
    ) -> List[int]:
        """Round-robin OST allocation (Lustre's default allocator).

        ``stripe_offset`` pins the first OST (``lfs setstripe -o``);
        otherwise a filesystem-wide cursor rotates so consecutive
        creates land on different targets.
        """
        n = self.n_osts
        if stripe_count > n:
            raise StripeLimitExceeded(
                f"stripe_count {stripe_count} exceeds pool size {n}"
            )
        start = self._alloc_cursor if stripe_offset is None else stripe_offset
        if not 0 <= start < n:
            raise ValueError(f"stripe_offset {start} out of range")
        osts = [(start + i) % n for i in range(stripe_count)]
        if stripe_offset is None:
            self._alloc_cursor = (start + stripe_count) % n
        return osts

    def allocate_healthy_osts(self, stripe_count: int) -> List[int]:
        """Round-robin allocation restricted to live (UP/DEGRADED) targets.

        The relocation path after a fail-stop: a replacement file must
        not land back on the target that just died.  Deterministic — the
        same filesystem-wide cursor rotates over the healthy subset.
        """
        healthy = np.nonzero(self.pool.healthy())[0]
        if stripe_count > healthy.size:
            raise StripeLimitExceeded(
                f"stripe_count {stripe_count} exceeds {healthy.size} "
                f"healthy targets ({self.n_osts - healthy.size} down)"
            )
        start = self._alloc_cursor % healthy.size
        osts = [
            int(healthy[(start + i) % healthy.size])
            for i in range(stripe_count)
        ]
        self._alloc_cursor = (self._alloc_cursor + stripe_count) % self.n_osts
        return osts

    def create(
        self,
        path: str,
        stripe_count: int = 4,
        stripe_size: Optional[float] = None,
        stripe_offset: Optional[int] = None,
        osts: Optional[Sequence[int]] = None,
    ) -> Generator:
        """Create a file (a metadata op); returns the SimFile.

        Either give explicit ``osts`` or a ``stripe_count`` (optionally
        anchored with ``stripe_offset``).
        """
        if path in self._namespace:
            raise FileExistsInNamespace(path)
        if osts is not None:
            ost_list = list(osts)
            if any(not 0 <= o < self.n_osts for o in ost_list):
                raise ValueError("explicit OST index out of range")
        else:
            ost_list = self.allocate_osts(stripe_count, stripe_offset)
        if len(ost_list) > self.max_stripe_count:
            raise StripeLimitExceeded(
                f"{len(ost_list)} stripes > file system limit "
                f"{self.max_stripe_count} (Lustre 1.6 caps one file at "
                f"160 storage targets)"
            )
        layout = StripeLayout(
            tuple(ost_list),
            stripe_size=(
                self.default_stripe_size if stripe_size is None else stripe_size
            ),
        )
        yield from self.mds.operation("create")
        # Re-check: a concurrent creator may have won the race while we
        # queued at the MDS.
        if path in self._namespace:
            raise FileExistsInNamespace(path)
        f = SimFile(path=path, layout=layout, create_time=self.env.now)
        self._namespace[path] = f
        return f

    def open(self, path: str) -> Generator:
        """Open an existing file (a metadata op); returns the SimFile."""
        yield from self.mds.operation("open")
        return self.lookup(path)

    def close(self, f: SimFile) -> Generator:
        """Close (a metadata op)."""
        yield from self.mds.operation("close")
        f.closed = True
        return f

    # -- data path ---------------------------------------------------------
    def write(
        self,
        f: SimFile,
        node: int,
        offset: float,
        nbytes: float,
        writer: Optional[int] = None,
        payload: object = None,
        timeout: Optional[float] = None,
        blocks: Optional[Blocks] = None,
        tenant: int = -1,
    ) -> Generator:
        """Write ``nbytes`` at ``offset`` from ``node``; returns WriteRecord.

        Completion means absorption by the target OSTs (cache or disk);
        use :meth:`flush` for durability.  Returns the record, whose
        duration is the paper's "write time".

        ``blocks`` — ``(sizes, checksums)`` of the variable blocks laid
        back to back from ``offset`` — registers what this write carries
        with the file's block ledger (see
        :class:`~repro.lustre.file.BlockLedger`), which is what
        scrubbing and read-back verification inspect.  Blocks are
        registered only if the write completes: a failed write leaves
        no stored state, and a rewrite replaces the previous blocks.

        ``tenant`` tags the write's fabric flows for the QoS control
        plane (-1 = untagged, never rate-limited).

        Failure semantics: a write touching a FAILED target raises
        :class:`OstFailedError` — up front if the target is already
        dead, or at the yield point if it dies mid-transfer.  With
        ``timeout`` set, a write that has not completed by the deadline
        (the signature of a HUNG target) cancels its remaining flows
        and raises :class:`WriteTimeout`.  Either way sibling flows are
        withdrawn, so a failed write leaves nothing in flight.

        This is :meth:`start_write`, a wait, then :meth:`finish_write`;
        one process driving many writes starts each, hears of it through
        :meth:`when_written` and finishes it from that callback.
        """
        w = self.start_write(f, node, offset, nbytes, writer=writer,
                             timeout=timeout, tenant=tenant)
        if w.flows:
            try:
                yield self._join(w)
            except FileSystemError:
                pass  # finish_write withdraws the flows and re-raises
        return self.finish_write(w, payload=payload, blocks=blocks)

    def start_write(
        self,
        f: SimFile,
        node: int,
        offset: float,
        nbytes: float,
        writer: Optional[int] = None,
        timeout: Optional[float] = None,
        tenant: int = -1,
    ) -> PendingWrite:
        """Start a write's flows now; :meth:`finish_write` completes it.

        Raises up front exactly as :meth:`write` does.  Hand the
        returned handle to :meth:`when_written` to hear when it settles.
        """
        spans = f.layout.span_list(offset, nbytes)
        if len(spans) > self.max_flows_per_write:
            raise FileSystemError(
                f"write spans {len(spans)} OSTs > max_flows_per_write="
                f"{self.max_flows_per_write}; use a stripe-aligned layout "
                f"(stripe_size >= chunk size)"
            )
        if self.pool.faults_active:
            for ost, _b in spans:
                if self.pool.state[ost] == OstState.FAILED:
                    raise OstFailedError(
                        ost, f"write to failed ost {ost} rejected"
                    )
        w = PendingWrite(f, offset, nbytes, writer, timeout, self.env.now)
        if not spans:
            return w
        tr = self.env.tracer
        for ost, b in spans:
            ev, fid = self.fabric.start_flow_with_id(
                node, ost, b, tenant=tenant
            )
            if tr is not None:
                tid = f"writer {node if writer is None else writer}"
                tr.begin(
                    "ost.service",
                    cat="ost",
                    pid=f"ost/{ost}",
                    tid=tid,
                    args={"nbytes": float(b), "offset": float(offset),
                          "writer": writer},
                )

                def _end(_ev, _tr=tr, _ost=ost, _tid=tid) -> None:
                    _tr.end("ost.service", cat="ost",
                            pid=f"ost/{_ost}", tid=_tid)

                ev.add_callback(_end)
            w.flows.append(ev)
            w.fids.append(fid)
        if timeout is not None:
            w.timer = self.env.timeout(timeout)
        return w

    def when_written(self, w: PendingWrite,
                     fn: Callable[[Event], None]) -> None:
        """Call ``fn(event)`` once ``w`` has settled — every flow landed,
        one failed, or the deadline passed — for it to call
        :meth:`finish_write`.  A lone flow with no deadline is its own
        join, so the callback rides its completion event."""
        if len(w.flows) == 1 and w.timer is None:
            w.done = w.wait = w.flows[0]
        else:
            self._join(w)
        w.wait.add_callback(fn)

    def _join(self, w: PendingWrite) -> Event:
        """The event a waiting process yields on: every flow landed,
        raced against the deadline if there is one."""
        w.done = w.wait = self.env.all_of(w.flows)
        if w.timer is not None:
            w.wait = self.env.any_of([w.done, w.timer])
        return w.wait

    def finish_write(
        self,
        w: PendingWrite,
        payload: object = None,
        blocks: Optional[Blocks] = None,
    ) -> WriteRecord:
        """Complete a write once it has settled; returns its record.

        A failed flow or an expired timer withdraws the write's
        remaining flows and raises, as :meth:`write` documents;
        otherwise the write is recorded (:meth:`_record_write`) at now
        and its record built from the handle.
        """
        timer = w.timer
        if w.wait is not None and not w.wait.ok:
            exc = w.wait.value
            if isinstance(exc, FileSystemError):
                if timer is not None and not timer.processed:
                    timer.cancel()
                self._withdraw_flows(w.fids)
            raise exc
        if timer is not None:
            if not w.done.triggered:
                undelivered = self._withdraw_flows(w.fids)
                raise WriteTimeout(
                    f"write of {w.nbytes:.0f} B at offset {w.offset:.0f} "
                    f"timed out after {w.timeout} s",
                    undelivered=undelivered,
                )
            if not timer.processed:
                timer.cancel()
        end = self.env.now
        self._record_write(w.f, w.offset, w.nbytes, w.start, end, w.writer,
                           payload, blocks)
        return WriteRecord(w.offset, w.nbytes, w.start, end, w.writer)

    def record_aggregated_write(
        self,
        f: SimFile,
        node: int,
        offset: float,
        nbytes: float,
        start_time: float,
        end_time: float,
        writer: Optional[int] = None,
        payload: object = None,
        blocks: Optional[Blocks] = None,
    ) -> None:
        """Bookkeeping for a write whose bytes rode an aggregate flow.

        The batched adaptive protocol moves a whole group's data as one
        fabric flow; individual members' segments are accounted here
        when their boundary inside the stream is crossed: the traced
        ``ost.service`` span at the member's actual (possibly past)
        start/end instants, then the bookkeeping tail :meth:`write`
        shares — with no fabric interaction: the carrying flow already
        moved the bytes.  Builds no record: the write is a row of the
        file's :class:`~repro.lustre.file.WriteLog`.
        """
        tr = self.env.tracer
        if tr is not None:
            tid = f"writer {node if writer is None else writer}"
            for ost, b in f.layout.span_list(offset, nbytes):
                tr.begin(
                    "ost.service",
                    cat="ost",
                    pid=f"ost/{ost}",
                    tid=tid,
                    ts=start_time,
                    args={"nbytes": float(b), "offset": float(offset),
                          "writer": writer},
                )
                tr.end("ost.service", cat="ost", pid=f"ost/{ost}", tid=tid,
                       ts=end_time)
        self._record_write(
            f, offset, nbytes, start_time, end_time, writer, payload, blocks
        )

    def _record_write(self, f, offset, nbytes, start_time, end_time,
                      writer, payload, blocks) -> None:
        """A completed write's bookkeeping: metrics, the file's write
        log, stored blocks (appended to the file's ledger, numbered by
        ``_store_seq``) and the corruption hook, in that order."""
        if self._m_writes is not None:
            self._m_writes.inc()
            self._m_bytes_written.inc(float(nbytes))
            self._m_write_seconds.observe(end_time - start_time)
        f.record_write(offset, nbytes, start_time, end_time, writer, payload)
        if blocks is not None:
            first = f.store_blocks(offset, blocks, self._store_seq + 1,
                                   writer=writer)
            self._store_seq += len(blocks[0])
            if self.corrupt_hook is not None:
                self.corrupt_hook(f, f.blocks.views(first))

    def _withdraw_flows(self, fids: List[int]) -> float:
        """Cancel whichever of *fids* are still in flight; bytes undelivered."""
        undelivered = 0.0
        for fid in fids:
            if self.fabric.in_flight(fid):
                undelivered += self.fabric.cancel_flow(fid)
        return undelivered

    def read(
        self, f: SimFile, node: int, offset: float, nbytes: float
    ) -> Generator:
        """Read a byte range; returns elapsed seconds.

        Reads are modelled coarsely (disk-rate transfer sampled at
        start, re-evaluated in slices); they are used by the read-back
        examples, not by the paper's write experiments.
        """
        if nbytes < 0 or offset < 0:
            raise ValueError("offset and nbytes must be non-negative")
        start = self.env.now
        spans = f.layout.span_list(offset, nbytes)
        for ost, b in spans:
            remaining = b
            while remaining > 1e-6:
                rate = float(self.pool.drain_rates()[ost])
                slice_bytes = min(remaining, max(rate * 0.1, 1.0))
                yield self.env.timeout(slice_bytes / max(rate, 1.0))
                remaining -= slice_bytes
        return self.env.now - start

    def flush(
        self,
        f: SimFile,
        timeout: Optional[float] = None,
    ) -> Generator:
        """Wait until the file's absorbed bytes are durable.

        Durable means on the platters *or* inside the storage
        target's battery-backed cache region (``stable_bytes`` of the
        pool config — real fsyncs on DDN-class hardware return from
        mirrored NVRAM).  OST caches drain FIFO, so the bytes absorbed
        by now are durable once cumulative drained bytes pass that
        per-OST watermark less ``stable_bytes``.
        Returns elapsed seconds.

        A flush involving a FAILED target raises
        :class:`OstFailedError` (its dirty bytes are gone — durability
        is unachievable).  With ``timeout`` set, a flush stalled past
        the deadline (a HUNG target drains at rate zero) raises
        :class:`WriteTimeout` instead of re-arming its wait forever.
        """
        osts = set(f.layout.osts)
        self.fabric.sync()  # bring pool accounting up to now
        marker = self.pool.bytes_absorbed.copy()
        start = self.env.now
        deadline = None if timeout is None else start + timeout
        idx = np.fromiter(osts, dtype=np.int64)
        stable = self.pool.config.stable_bytes
        while True:
            self.fabric.sync()
            if self.pool.faults_active:
                for o in idx:
                    if self.pool.state[o] == OstState.FAILED:
                        raise OstFailedError(
                            int(o), f"flush: ost {int(o)} failed"
                        )
            deficit = (
                marker[idx] - stable - self.pool.bytes_drained[idx]
            )
            worst = float(deficit.max()) if deficit.size else 0.0
            if worst <= _FLUSH_EPS:
                if self._m_flushes is not None:
                    self._m_flushes.inc()
                    self._m_flush_seconds.observe(self.env.now - start)
                return self.env.now - start
            if deadline is not None and self.env.now >= deadline - 1e-9:
                undelivered = float(np.clip(deficit, 0.0, None).sum())
                raise WriteTimeout(
                    f"flush did not settle within {timeout} s "
                    f"(worst per-ost deficit {worst:.0f} B)",
                    undelivered=undelivered,
                )
            rates = self.pool.drain_rates()[idx]
            t = float(np.max(deficit / np.maximum(rates, 1.0)))
            if deadline is not None:
                t = min(t, deadline - self.env.now)
            yield self.env.timeout(max(t, 1e-6))

    # -- stats -------------------------------------------------------------
    def total_bytes_on_disk(self) -> float:
        self.fabric.sync()
        return float(self.pool.bytes_drained.sum())

    def total_bytes_absorbed(self) -> float:
        self.fabric.sync()
        return float(self.pool.bytes_absorbed.sum())
