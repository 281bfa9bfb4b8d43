"""File objects in the simulated namespace.

A file's stored blocks are a columnar :class:`BlockLedger`: one row per
block, and a :class:`StoredBlock` is a write-through view of a row,
built only when a reader asks for one.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from itertools import repeat
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.lustre.layout import StripeLayout

__all__ = ["BlockLedger", "SimFile", "StoredBlock", "WriteRecord"]


@dataclass(frozen=True)
class WriteRecord:
    """One completed write: who wrote what where, and when."""

    offset: float
    nbytes: float
    start_time: float
    end_time: float
    writer: Optional[int] = None  # rank, when known

    @property
    def duration(self) -> float:
        return self.end_time - self.start_time


def _column(name: str, doc: str, writable: bool = False) -> property:
    def get(self):
        return getattr(self._ledger, name)[self._row]

    def put(self, value) -> None:
        getattr(self._ledger, name)[self._row] = value

    return property(get, put if writable else None, doc=doc)


class StoredBlock:
    """The stored state of one variable block, as the OSTs hold it.

    This is the integrity layer's ground truth: ``checksum`` is what a
    read-back would actually compute over the stored copy (the fault
    injector mutates it to model bit rot), ``valid_bytes`` < ``nbytes``
    models a torn write (only a prefix landed), and ``corrupt`` flags
    any injected mutation — detectable or not — so detection rates can
    be measured against what really happened.

    A write-through view of one row of a file's :class:`BlockLedger`,
    built on access: setting ``checksum``, ``valid_bytes`` or
    ``corrupt`` writes the ledger.  A view of a block that a rewrite
    has since replaced, or that was deleted, no longer reaches the
    file's live state.
    """

    __slots__ = ("_ledger", "_row")

    def __init__(self, ledger: "BlockLedger", row: int):
        self._ledger = ledger
        self._row = row

    offset = _column("offset", "Byte offset of the block in its file.")
    nbytes = _column("nbytes", "Block length in bytes.")
    checksum = _column(
        "checksum", "What a read-back computes; None if checksum-free.",
        writable=True)
    valid_bytes = _column(
        "valid_bytes", "Length of the prefix that landed.", writable=True)
    seq = _column("seq", "Filesystem-wide store order (recency).")
    writer = _column("writer", "Rank that wrote the block, when known.")
    corrupt = _column(
        "corrupt", "Any injected mutation, detectable or not.",
        writable=True)

    @property
    def torn(self) -> bool:
        return self.valid_bytes < self.nbytes - 1e-9

    def __eq__(self, other) -> bool:
        return (isinstance(other, StoredBlock)
                and other._ledger is self._ledger and other._row == self._row)

    __hash__ = None

    def __repr__(self) -> str:
        return (f"StoredBlock(offset={self.offset!r}, nbytes={self.nbytes!r}, "
                f"checksum={self.checksum!r}, "
                f"valid_bytes={self.valid_bytes!r}, seq={self.seq!r}, "
                f"writer={self.writer!r}, corrupt={self.corrupt!r})")


class BlockLedger(Mapping):
    """A file's stored blocks as columns: ``extent -> StoredBlock``.

    One row per stored block in store order, across the columns
    ``offset``, ``nbytes``, ``checksum``, ``valid_bytes``, ``seq``,
    ``writer`` and ``corrupt``.  As a mapping it is keyed by extent
    ``(offset, nbytes)`` and yields :class:`StoredBlock` views.  A
    later row at the same extent replaces the earlier one (a rewrite),
    and ``del``/``pop`` drop a block.  Storing only appends to the
    columns; the extent map folds new rows in on the next read, so a
    write path that nobody reads back builds no per-block object.
    """

    __slots__ = ("offset", "nbytes", "checksum", "valid_bytes", "seq",
                 "writer", "corrupt", "_rows", "_mapped")

    def __init__(self):
        self.offset: List[float] = []
        self.nbytes: List[float] = []
        self.checksum: List[Optional[int]] = []
        self.valid_bytes: List[float] = []
        self.seq: List[int] = []
        self.writer: List[Optional[int]] = []
        self.corrupt: List[bool] = []
        self._rows: Dict[Tuple[float, float], int] = {}
        self._mapped = 0

    def append(
        self,
        offset: float,
        sizes: Sequence[float],
        checksums: Sequence[Optional[int]],
        first_seq: int,
        writer: Optional[int] = None,
    ) -> int:
        """Store blocks of ``sizes`` back to back from ``offset``,
        numbered ``first_seq``, ``first_seq + 1``, ...; returns the
        first new row."""
        first = len(self.offset)
        for nb in sizes:
            self.offset.append(offset)
            offset += nb
        n = len(self.offset) - first
        self.nbytes.extend(sizes)
        self.checksum.extend(checksums)
        self.valid_bytes.extend(map(float, sizes))
        self.seq.extend(range(first_seq, first_seq + n))
        self.writer.extend(repeat(writer, n))
        self.corrupt.extend(repeat(False, n))
        return first

    def _extents(self) -> Dict[Tuple[float, float], int]:
        """``extent -> live row``, folding in the rows stored since."""
        rows = self._rows
        offs, nbs = self.offset, self.nbytes
        for i in range(self._mapped, len(offs)):
            rows[(offs[i], nbs[i])] = i
        self._mapped = len(offs)
        return rows

    def views(self, first: int) -> List[StoredBlock]:
        """Views of every row from ``first`` on, in store order."""
        return [StoredBlock(self, i) for i in range(first, len(self.offset))]

    def __getitem__(self, extent: Tuple[float, float]) -> StoredBlock:
        return StoredBlock(self, self._extents()[extent])

    def __iter__(self) -> Iterator[Tuple[float, float]]:
        return iter(self._extents())

    def __len__(self) -> int:
        return len(self._extents())

    def __delitem__(self, extent: Tuple[float, float]) -> None:
        del self._extents()[extent]

    def pop(self, extent: Tuple[float, float], *default):
        rows = self._extents()
        if extent not in rows and default:
            return default[0]
        return StoredBlock(self, rows.pop(extent))


@dataclass
class SimFile:
    """A file: a stripe layout plus the history of writes against it.

    The simulator does not store payload bytes — experiments only need
    extents and timing — but it *does* store opaque per-extent payload
    tags when callers provide them, which is how the BP index layer
    round-trips metadata through "files" for the read-back path.
    ``blocks`` is the file's :class:`BlockLedger` of stored variable
    blocks, the integrity layer's ground truth.
    """

    path: str
    layout: StripeLayout
    create_time: float = 0.0
    writes: List[WriteRecord] = field(default_factory=list)
    payloads: Dict[Tuple[float, float], object] = field(default_factory=dict)
    blocks: BlockLedger = field(default_factory=BlockLedger)
    closed: bool = False

    @property
    def size(self) -> float:
        """Bytes from 0 to the end of the furthest extent written."""
        if not self.writes:
            return 0.0
        return max(w.offset + w.nbytes for w in self.writes)

    @property
    def bytes_written(self) -> float:
        """Total bytes written (extents may overlap; they all count)."""
        return sum(w.nbytes for w in self.writes)

    def record_write(self, record: WriteRecord, payload: object = None) -> None:
        if self.closed:
            raise ValueError(f"{self.path}: write after close")
        self.writes.append(record)
        if payload is not None:
            self.payloads[(record.offset, record.nbytes)] = payload

    def payload_at(self, offset: float, nbytes: float) -> object:
        """The payload tag stored for an exact extent, or None."""
        return self.payloads.get((offset, nbytes))

    def attach_local_index(self, entries) -> None:
        """Attach the file's local-index footer as a metadata payload.

        The BP layout stores each file's own index inside the file;
        this is what index rebuild (fsck) recovers the global index
        from when the master index is lost.  Transports that pay
        simulated time for the index write do so separately — this
        only records the metadata content.  ``entries`` is a sequence of
        index entries (a finalized local index's table, kept as is).
        """
        self.payloads[("local_index", self.path)] = ("local_index", entries)

    def store_blocks(
        self,
        offset: float,
        blocks: Tuple[Sequence[float], Sequence[Optional[int]]],
        first_seq: int,
        writer: Optional[int] = None,
    ) -> int:
        """Register the stored state of a run of data blocks.

        ``blocks`` is ``(sizes, checksums)``: blocks laid back to back
        from ``offset``, numbered from ``first_seq``.  A rewrite at an
        existing extent replaces that block outright — the repair
        semantics of a retried or fsck-reissued write.  Returns the
        first new ledger row.
        """
        sizes, checksums = blocks
        return self.blocks.append(offset, sizes, checksums, first_seq, writer)

    def store_block(
        self,
        offset: float,
        nbytes: float,
        checksum: Optional[int],
        seq: int,
        writer: Optional[int] = None,
    ) -> StoredBlock:
        """Register (or overwrite) the stored state of one data block."""
        row = self.blocks.append(offset, (nbytes,), (checksum,), seq, writer)
        return StoredBlock(self.blocks, row)

    def block_at(self, offset: float, nbytes: float) -> Optional[StoredBlock]:
        """The stored block at an exact extent, or None."""
        return self.blocks.get((offset, nbytes))

    def stored_blocks(self) -> List[StoredBlock]:
        """Every stored data block, in (offset, nbytes) order."""
        return [blk for _, blk in sorted(self.blocks.items())]

    def extents(self) -> List[Tuple[float, float]]:
        """(offset, nbytes) of every write, in completion order."""
        return [(w.offset, w.nbytes) for w in self.writes]
