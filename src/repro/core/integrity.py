"""Block-level integrity: classification, scrub reports, index rebuild.

The global index says where every variable block *should* be and what
its content checksum *should* equal; the storage layer knows what is
actually there (:class:`~repro.lustre.file.StoredBlock`).  This module
compares the two:

* :func:`classify_block` gives one block its scrub verdict;
* :class:`ScrubReport` aggregates a full-output walk (see
  :meth:`~repro.core.bp.BpReader.scrub`);
* :func:`rebuild_global_index` reassembles a damaged or missing global
  index from the per-file local indices, the fsck recovery path;
* :func:`detection_stats` scores a scrub against the storage layer's
  ground truth — detected vs undetected corruption, false positives.

Everything here is pure state inspection (no simulated time); the
simulated *cost* of scrubbing lives in ``BpReader.scrub_sim``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple

from repro.core.index import GlobalIndex, IndexEntry
from repro.errors import FileNotFoundInNamespace

if TYPE_CHECKING:  # pragma: no cover
    from repro.lustre.file import SimFile
    from repro.lustre.filesystem import FileSystem

__all__ = [
    "BLOCK_VALID",
    "BLOCK_CORRUPT",
    "BLOCK_TORN",
    "BLOCK_MISSING",
    "BLOCK_UNINDEXED",
    "BLOCK_UNVERIFIED",
    "BLOCK_STATUSES",
    "BAD_STATUSES",
    "BlockReport",
    "ScrubReport",
    "classify_block",
    "verify_stored",
    "rebuild_global_index",
    "detection_stats",
]

BLOCK_VALID = "valid"  # stored, whole, checksum matches
BLOCK_CORRUPT = "corrupt"  # stored whole but checksum mismatch
BLOCK_TORN = "torn"  # only a prefix of the block landed
BLOCK_MISSING = "missing"  # indexed but no stored block (or no file)
BLOCK_UNINDEXED = "unindexed"  # stored but no index entry points at it
BLOCK_UNVERIFIED = "unverified"  # no checksum on either side

BLOCK_STATUSES = (
    BLOCK_VALID,
    BLOCK_CORRUPT,
    BLOCK_TORN,
    BLOCK_MISSING,
    BLOCK_UNINDEXED,
    BLOCK_UNVERIFIED,
)

#: Statuses a scrub reports as damage (valid/unverified are not).
BAD_STATUSES = (BLOCK_CORRUPT, BLOCK_TORN, BLOCK_MISSING, BLOCK_UNINDEXED)


def classify_block(f: Optional["SimFile"], entry: IndexEntry) -> str:
    """Scrub verdict for one indexed block against its stored state.

    Precedence: a gone block is missing before anything else; a tear
    is visible from the index's own length metadata, so it outranks
    the checksum; without checksums on both sides the best a reader
    can honestly say is "unverified".
    """
    if f is None:
        return BLOCK_MISSING
    blk = f.block_at(entry.offset, entry.nbytes)
    if blk is None:
        return BLOCK_MISSING
    if blk.torn:
        return BLOCK_TORN
    if entry.checksum is None or blk.checksum is None:
        return BLOCK_UNVERIFIED
    if blk.checksum != entry.checksum:
        return BLOCK_CORRUPT
    return BLOCK_VALID


def verify_stored(
    f: "SimFile", blocks: Iterable[Tuple[float, float, Optional[int]]]
) -> bool:
    """Read-back check a writer runs right after its own write.

    True iff every ``(offset, nbytes, checksum)`` block is stored,
    whole, and checksum-consistent.  A corruption the writer has no
    checksum for is — by construction — invisible here; that is the
    gap scrubbing quantifies.
    """
    for offset, nbytes, checksum in blocks:
        blk = f.block_at(offset, nbytes)
        if blk is None or blk.torn:
            return False
        if (
            checksum is not None
            and blk.checksum is not None
            and blk.checksum != checksum
        ):
            return False
    return True


@dataclass(frozen=True)
class BlockReport:
    """One non-valid block in a scrub report."""

    file: str
    var: str
    writer: int
    offset: float
    nbytes: float
    status: str

    def to_dict(self) -> Dict:
        return {
            "file": self.file,
            "var": self.var,
            "writer": self.writer,
            "offset": float(self.offset),
            "nbytes": float(self.nbytes),
            "status": self.status,
        }


@dataclass(frozen=True)
class ScrubReport:
    """Outcome of one full-output integrity walk."""

    n_files: int
    n_blocks: int
    counts: Dict[str, int]  # status -> block count
    bad: Tuple[BlockReport, ...]  # every damaged block, sorted
    bytes_scanned: float
    bytes_bad: float
    missing_files: Tuple[str, ...]  # indexed files gone from the namespace

    @property
    def ok(self) -> bool:
        """No damage found (unverified blocks do not count as damage)."""
        return not self.bad and not self.missing_files

    @property
    def n_bad(self) -> int:
        return len(self.bad)

    def to_dict(self) -> Dict:
        return {
            "n_files": self.n_files,
            "n_blocks": self.n_blocks,
            "counts": {s: int(self.counts.get(s, 0))
                       for s in BLOCK_STATUSES},
            "bad": [b.to_dict() for b in self.bad],
            "bytes_scanned": float(self.bytes_scanned),
            "bytes_bad": float(self.bytes_bad),
            "missing_files": list(self.missing_files),
            "ok": self.ok,
        }


def rebuild_global_index(
    fs: "FileSystem", files: Iterable[str]
) -> Tuple[GlobalIndex, List[str]]:
    """Rebuild a global index from the per-file local indices.

    Walks each sub-file's stored ``("local_index", entries)`` payload —
    the piece every sub-coordinator writes at the end of its file —
    and merges them, which is exactly what the coordinator would have
    done.  Returns the rebuilt index plus the files that carried no
    local index (nothing to recover from: their blocks will scrub as
    unindexed at best).
    """
    index = GlobalIndex()
    uncovered: List[str] = []
    for path in sorted(set(files)):
        try:
            f = fs.lookup(path)
        except FileNotFoundInNamespace:
            uncovered.append(path)
            continue
        entries: List[IndexEntry] = []
        for payload in f.payloads.values():
            if (
                isinstance(payload, tuple)
                and payload
                and payload[0] == "local_index"
            ):
                entries.extend(payload[1])
        if entries:
            entries.sort(key=lambda e: (e.offset, e.var, e.writer))
            index.add_file(path, entries)
        else:
            uncovered.append(path)
    return index, uncovered


def detection_stats(
    report: ScrubReport, fs: "FileSystem", index: GlobalIndex
) -> Dict[str, int]:
    """Score a scrub against the storage layer's ground truth.

    Ground truth is what is *actually* wrong with the indexed blocks
    right now — the ``corrupt``/``torn`` flags and absences the fault
    injector left behind (blocks a writer already rewrote are fine
    again and do not count).  Returns::

        {"truth": .., "detected": .., "undetected": .., "false_positives": ..}

    With checksums on, ``undetected`` must be zero; without them it is
    the silent-corruption exposure.  ``false_positives`` are blocks the
    scrub flagged that ground truth says are fine.
    """
    truth = set()
    for path, entries in index.entries_by_file().items():
        try:
            f = fs.lookup(path)
        except FileNotFoundInNamespace:
            f = None
        for e in entries:
            key = (path, e.offset, e.nbytes)
            if f is None:
                truth.add(key)
                continue
            blk = f.block_at(e.offset, e.nbytes)
            if blk is None or blk.corrupt or blk.torn:
                truth.add(key)
    flagged = {(b.file, b.offset, b.nbytes) for b in report.bad}
    return {
        "truth": len(truth),
        "detected": len(truth & flagged),
        "undetected": len(truth - flagged),
        "false_positives": len(flagged - truth),
    }
