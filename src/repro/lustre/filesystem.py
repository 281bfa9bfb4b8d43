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
from repro.units import MB

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Environment

__all__ = ["FileSystem"]

_FLUSH_EPS = 64.0  # bytes of drain slack considered "flushed"


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
    max_flows_per_write:
        Guard: one logical write may fan out to at most this many
        per-OST flows.  Spraying every write over hundreds of OSTs is
        both unrealistic (real clients stream RPCs per object) and a
        simulation DoS, so we fail loudly instead.
    """

    def __init__(
        self,
        env: "Environment",
        pool: OstPool,
        source_capacities: np.ndarray,
        max_stripe_count: int = 160,
        default_stripe_size: float = 1.0 * MB,
        per_stream_cap: float = float("inf"),
        mds: Optional[MetadataServer] = None,
        max_flows_per_write: int = 32,
    ):
        if max_stripe_count < 1:
            raise ValueError("max_stripe_count must be >= 1")
        if default_stripe_size <= 0:
            raise ValueError("default_stripe_size must be positive")
        self.env = env
        self.pool = pool
        self.fabric = FlowNetwork(
            env, source_capacities, pool, default_flow_cap=per_stream_cap
        )
        pool.bind(env, self.fabric.invalidate)
        self.mds = mds if mds is not None else MetadataServer(env)
        self.max_stripe_count = int(max_stripe_count)
        self.default_stripe_size = float(default_stripe_size)
        self.max_flows_per_write = int(max_flows_per_write)
        self._namespace: Dict[str, SimFile] = {}
        self._alloc_cursor = 0
        self._store_seq = 0
        # Integrity hook: called with (file, [StoredBlock]) right after
        # a write registers its blocks.  The fault injector installs a
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
        blocks: Optional[Sequence[Tuple[float, float, Optional[int]]]] = None,
        tenant: int = -1,
    ) -> Generator:
        """Write ``nbytes`` at ``offset`` from ``node``; returns WriteRecord.

        Completion means absorption by the target OSTs (cache or disk);
        use :meth:`flush` for durability.  Returns the record, whose
        duration is the paper's "write time".

        ``blocks`` — ``(offset, nbytes, checksum)`` triples — registers
        the variable blocks this write carries with the storage layer
        (see :class:`~repro.lustre.file.StoredBlock`), which is what
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
        """
        spans = f.layout.span_list(offset, nbytes)
        if len(spans) > self.max_flows_per_write:
            raise FileSystemError(
                f"write spans {len(spans)} OSTs > max_flows_per_write="
                f"{self.max_flows_per_write}; use a stripe-aligned layout "
                f"(stripe_size >= chunk size) or raise the limit"
            )
        if self.pool.faults_active:
            for ost, _b in spans:
                if self.pool.state[ost] == OstState.FAILED:
                    raise OstFailedError(
                        ost, f"write to failed ost {ost} rejected"
                    )
        start = self.env.now
        if spans:
            tr = self.env.tracer
            events = []
            fids = []
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
                events.append(ev)
                fids.append(fid)
            done = self.env.all_of(events)
            if timeout is None:
                try:
                    yield done
                except FileSystemError:
                    self._withdraw_flows(fids)
                    raise
            else:
                timer = self.env.timeout(timeout)
                try:
                    yield self.env.any_of([done, timer])
                except FileSystemError:
                    if not timer.processed:
                        timer.cancel()
                    self._withdraw_flows(fids)
                    raise
                if not done.triggered:
                    undelivered = self._withdraw_flows(fids)
                    raise WriteTimeout(
                        f"write of {nbytes:.0f} B at offset {offset:.0f} "
                        f"timed out after {timeout} s",
                        undelivered=undelivered,
                    )
                if not timer.processed:
                    timer.cancel()
        return self._record_write(
            f, offset, nbytes, start, self.env.now, writer, payload, blocks
        )

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
        blocks: Optional[Sequence[Tuple[float, float, Optional[int]]]] = None,
    ) -> WriteRecord:
        """Bookkeeping for a write whose bytes rode an aggregate flow.

        The batched adaptive protocol moves a whole group's data as one
        fabric flow; individual members' segments are accounted here
        when their boundary inside the stream is crossed: the traced
        ``ost.service`` span at the member's actual (possibly past)
        start/end instants, then the bookkeeping tail :meth:`write`
        shares — with no fabric interaction: the carrying flow already
        moved the bytes.
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
        return self._record_write(
            f, offset, nbytes, start_time, end_time, writer, payload, blocks
        )

    def _record_write(self, f, offset, nbytes, start_time, end_time,
                      writer, payload, blocks) -> WriteRecord:
        """A completed write's bookkeeping: the :class:`WriteRecord`,
        metrics, the file's write log, stored blocks (numbered by
        ``_store_seq``) and the corruption hook, in that order."""
        record = WriteRecord(
            offset=offset,
            nbytes=nbytes,
            start_time=start_time,
            end_time=end_time,
            writer=writer,
        )
        if self._m_writes is not None:
            self._m_writes.inc()
            self._m_bytes_written.inc(float(nbytes))
            self._m_write_seconds.observe(end_time - start_time)
        f.record_write(record, payload=payload)
        if blocks:
            stored = []
            for boff, bnb, cksum in blocks:
                self._store_seq += 1
                stored.append(
                    f.store_block(boff, bnb, cksum, self._store_seq,
                                  writer=writer)
                )
            if self.corrupt_hook is not None:
                self.corrupt_hook(f, stored)
        return record

    def _withdraw_flows(self, fids: List[int]) -> float:
        """Cancel whichever of *fids* are still in flight; bytes undelivered."""
        undelivered = 0.0
        for fid in fids:
            if fid in self.fabric._slot_of:
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

    def flush_marker(self, f: SimFile) -> np.ndarray:
        """Per-OST absorbed-bytes watermark for a later :meth:`flush`."""
        self.fabric.invalidate()  # bring pool accounting up to now
        return self.pool.bytes_absorbed.copy()

    def flush(
        self,
        f: SimFile,
        marker: Optional[np.ndarray] = None,
        timeout: Optional[float] = None,
    ) -> Generator:
        """Wait until the file's absorbed bytes are durable.

        Durable means on the platters *or* inside the storage
        target's battery-backed cache region (``stable_bytes`` of the
        pool config — real fsyncs on DDN-class hardware return from
        mirrored NVRAM).  OST caches drain FIFO, so bytes absorbed
        before watermark ``marker`` (default: now) are durable once
        cumulative drained bytes pass ``marker - stable_bytes``.
        Returns elapsed seconds.

        A flush involving a FAILED target raises
        :class:`OstFailedError` (its dirty bytes are gone — durability
        is unachievable).  With ``timeout`` set, a flush stalled past
        the deadline (a HUNG target drains at rate zero) raises
        :class:`WriteTimeout` instead of re-arming its wait forever.
        """
        osts = set(f.layout.osts)
        if marker is None:
            marker = self.flush_marker(f)
        start = self.env.now
        deadline = None if timeout is None else start + timeout
        idx = np.fromiter(osts, dtype=np.int64)
        stable = self.pool.config.stable_bytes
        while True:
            self.fabric.invalidate()
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
        self.fabric.invalidate()
        return float(self.pool.bytes_drained.sum())

    def total_bytes_absorbed(self) -> float:
        self.fabric.invalidate()
        return float(self.pool.bytes_absorbed.sum())
