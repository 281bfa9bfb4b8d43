"""BP-style read path: global-index-driven reads of written output.

The paper (Section IV-C): "By using the global index, access to any
data can be performed using a single lookup into the index and then a
direct read of the value(s) from the appropriate data file(s)".  This
module implements that reader over the simulated file system, plus an
index *search* fallback for output sets whose global index was never
written ("we use a automatic, systematic search of the index in each
file") — the interim mode the paper describes, which the ablation
benches use to quantify what the global index buys.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Dict,
    Generator,
    List,
    Optional,
    Tuple,
)

from repro.core.index import GlobalIndex, IndexEntry
from repro.core.integrity import (
    BLOCK_STATUSES,
    BLOCK_UNINDEXED,
    BLOCK_UNVERIFIED,
    BLOCK_VALID,
    BlockReport,
    ScrubReport,
    classify_block,
    rebuild_global_index,
)
from repro.errors import FileNotFoundInNamespace, FileSystemError, IntegrityError

if TYPE_CHECKING:  # pragma: no cover
    from repro.lustre.file import SimFile
    from repro.lustre.filesystem import FileSystem

__all__ = ["BpReader"]


class BpReader:
    """Reads variable blocks back through the simulated file system.

    Parameters
    ----------
    fs:
        The file system holding the output set.
    index:
        The global index (from ``OutputResult.index``); optional —
        without it every lookup degrades to a per-file index scan.
    verify:
        Verifying read mode: every :meth:`read_block` /
        :meth:`read_variable` checks the stored block against its index
        entry (presence, wholeness, checksum) and raises
        :class:`IntegrityError` on damage — the reader-side half of the
        end-to-end integrity story.  Off by default: a plain reader
        happily returns rotten bytes, which is exactly the failure mode
        scrubbing exists to catch.
    """

    def __init__(self, fs: "FileSystem", index: Optional[GlobalIndex] = None,
                 files: Optional[List[str]] = None, verify: bool = False):
        if index is None and not files:
            raise ValueError("need a global index or an explicit file list")
        self.fs = fs
        self.index = index
        self.files = files if files is not None else (
            index.files if index is not None else []
        )
        self.verify = bool(verify)

    # -- lookup ------------------------------------------------------------
    def locate(self, var: str) -> List[Tuple[str, IndexEntry]]:
        """(file, entry) for every block of *var* — one index lookup."""
        if self.index is not None:
            hits = self.index.lookup(var)
        else:
            hits = self._scan_files(var)
        if not hits:
            raise KeyError(f"variable {var!r} not found")
        return hits

    def _scan_files(self, var: str) -> List[Tuple[str, IndexEntry]]:
        """The interim no-global-index mode: scan each file's local index."""
        hits: List[Tuple[str, IndexEntry]] = []
        for path in self.files:
            f = self.fs.lookup(path)
            for payload in f.payloads.values():
                if (
                    isinstance(payload, tuple)
                    and payload
                    and payload[0] == "local_index"
                ):
                    hits.extend((path, e) for e in payload[1]
                                if e.var == var)
        return hits

    # -- data path -----------------------------------------------------------
    def _check(self, path: str, f: "SimFile", entry: IndexEntry) -> None:
        """Verifying-mode gate: raise on a damaged block."""
        status = classify_block(f, entry)
        if status in (BLOCK_VALID, BLOCK_UNVERIFIED):
            return
        raise IntegrityError(
            f"{path}: block {entry.var!r} of writer {entry.writer} at "
            f"offset {entry.offset:.0f} is {status}",
            status=status,
        )

    def read_block(
        self, node: int, var: str, writer: int
    ) -> Generator:
        """Simulate reading one writer's block; returns (entry, seconds)."""
        hits = [h for h in self.locate(var) if h[1].writer == writer]
        if not hits:
            raise KeyError(f"variable {var!r} of writer {writer} not found")
        if len(hits) > 1:
            raise FileSystemError(
                f"{var!r} of writer {writer} has {len(hits)} blocks; "
                "corrupt index"
            )
        path, entry = hits[0]
        f = self.fs.lookup(path)
        seconds = yield from self.fs.read(
            f, node=node, offset=entry.offset, nbytes=entry.nbytes
        )
        if self.verify:
            self._check(path, f, entry)
        return entry, seconds

    def read_variable(self, node: int, var: str) -> Generator:
        """Simulate a restart-style read of every block of *var*.

        Returns (total_bytes, seconds).
        """
        hits = self.locate(var)
        start_bytes = 0.0
        t = 0.0
        for path, entry in hits:
            f = self.fs.lookup(path)
            seconds = yield from self.fs.read(
                f, node=node, offset=entry.offset, nbytes=entry.nbytes
            )
            if self.verify:
                self._check(path, f, entry)
            t += seconds
            start_bytes += entry.nbytes
        return start_bytes, t

    # -- scrubbing -----------------------------------------------------------
    def _indexed_walk(self) -> Tuple[Dict[str, List[IndexEntry]], List[str]]:
        """``file -> entries`` in scrub order, plus the full file set.

        With no global index, rebuilds one from the per-file local
        indices first — the fsck path for a damaged output set.  The
        file set is the indexed files plus the reader's files, which
        are walked for unindexed blocks only.
        """
        index = self.index
        if index is None:
            index, _uncovered = rebuild_global_index(self.fs, self.files)
        by_file = index.entries_by_file()
        file_set = list(by_file)
        for path in self.files:
            if path not in by_file:
                by_file[path] = []
                file_set.append(path)
        return by_file, file_set

    def scrub(self) -> ScrubReport:
        """Full-output integrity walk (pure state; no simulated time).

        Classifies every indexed block against its stored state, then
        sweeps every file for stored blocks no index entry points at
        (``unindexed``).  See :meth:`scrub_sim` for the simulated
        read-back cost of the same walk.
        """
        by_file, file_set = self._indexed_walk()
        counts = {s: 0 for s in BLOCK_STATUSES}
        bad: List[BlockReport] = []
        missing_files: List[str] = []
        n_blocks = 0
        bytes_scanned = 0.0
        bytes_bad = 0.0
        for path in sorted(file_set):
            entries = by_file.get(path, [])
            try:
                f = self.fs.lookup(path)
            except FileNotFoundInNamespace:
                f = None
                if entries:
                    missing_files.append(path)
            indexed_keys = set()
            for e in entries:
                indexed_keys.add((e.offset, e.nbytes))
                status = classify_block(f, e)
                counts[status] += 1
                n_blocks += 1
                bytes_scanned += e.nbytes
                if status not in (BLOCK_VALID, BLOCK_UNVERIFIED):
                    bad.append(BlockReport(
                        file=path, var=e.var, writer=e.writer,
                        offset=e.offset, nbytes=e.nbytes, status=status,
                    ))
                    bytes_bad += e.nbytes
            if f is None:
                continue
            for blk in f.stored_blocks():
                if (blk.offset, blk.nbytes) in indexed_keys:
                    continue
                counts[BLOCK_UNINDEXED] += 1
                n_blocks += 1
                bytes_scanned += blk.nbytes
                bytes_bad += blk.nbytes
                bad.append(BlockReport(
                    file=path, var="?",
                    writer=-1 if blk.writer is None else int(blk.writer),
                    offset=blk.offset, nbytes=blk.nbytes,
                    status=BLOCK_UNINDEXED,
                ))
        bad.sort(key=lambda b: (b.file, b.offset, b.var, b.writer))
        return ScrubReport(
            n_files=len(file_set),
            n_blocks=n_blocks,
            counts=counts,
            bad=tuple(bad),
            bytes_scanned=bytes_scanned,
            bytes_bad=bytes_bad,
            missing_files=tuple(sorted(missing_files)),
        )

    def scrub_sim(self, node: int) -> Generator:
        """Scrub with simulated read-back cost; returns (report, seconds).

        Walks the same blocks as :meth:`scrub` but pays a simulated
        read per indexed block that is physically readable (files whose
        stripes touch a fail-stopped target are classified from state
        only — a real scrubber cannot read a dead OST either).  Emits
        ``scrub`` spans and per-damaged-block ``scrub.detect`` instants
        (cat ``integrity``) when a tracer is active.
        """
        from repro.lustre.ost import OstState

        report = self.scrub()
        tr = self.fs.env.tracer
        start = self.fs.env.now
        if tr is not None:
            tr.begin("scrub", cat="integrity", pid="integrity",
                     tid="scrubber",
                     args={"n_blocks": report.n_blocks,
                           "n_files": report.n_files})
        by_file, _file_set = self._indexed_walk()
        for path in sorted(by_file):
            entries = by_file[path]
            if not entries:
                continue
            try:
                f = self.fs.lookup(path)
            except FileNotFoundInNamespace:
                continue
            dead = self.fs.pool.faults_active and any(
                self.fs.pool.state[o] == OstState.FAILED
                for o in f.layout.osts
            )
            if dead:
                continue
            for e in entries:
                blk = f.block_at(e.offset, e.nbytes)
                if blk is None:
                    continue
                yield from self.fs.read(
                    f, node=node, offset=e.offset,
                    nbytes=min(e.nbytes, blk.valid_bytes),
                )
        if tr is not None:
            for b in report.bad:
                tr.instant(
                    "scrub.detect", cat="integrity", pid="integrity",
                    tid=f"rank {b.writer}" if b.writer >= 0 else "scrubber",
                    args={"status": b.status, "file": b.file,
                          "var": b.var, "offset": float(b.offset)},
                )
            tr.end("scrub", cat="integrity", pid="integrity",
                   tid="scrubber",
                   args={"n_bad": report.n_bad})
        return report, self.fs.env.now - start

    def query_value_range(
        self, var: str, low: float, high: float
    ) -> List[Tuple[str, IndexEntry]]:
        """Characteristic-pruned block list (no data read needed)."""
        if self.index is None:
            raise FileSystemError("value-range queries need a global index")
        return self.index.query_value_range(var, low, high)
