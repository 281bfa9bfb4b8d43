"""File objects in the simulated namespace.

A file's stored blocks are a columnar :class:`BlockLedger`: one row per
block, and a :class:`StoredBlock` is a write-through view of a row,
built only when a reader asks for one.  Its completed writes are a
columnar :class:`WriteLog`, whose :class:`WriteRecord` objects are
likewise built on access.
"""

from __future__ import annotations

import operator
from bisect import bisect_right
from collections.abc import Mapping
from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass, field
from itertools import repeat
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.index import PRISTINE, PristineChecksums
from repro.lustre.layout import StripeLayout

__all__ = ["BlockLedger", "SimFile", "StoredBlock", "WriteLog",
           "WriteRecord"]


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


class WriteLog(SequenceABC):
    """A file's completed writes, in completion order, as columns.

    One flat list holds ``offset, nbytes, start_time, end_time,
    writer`` per write back to back, so a file costs one list however
    many writes it takes; indexing or iterating builds a
    :class:`WriteRecord` equal to the one the write returned.
    """

    __slots__ = ("_rows",)

    _WIDTH = 5

    def __init__(self):
        self._rows: list = []

    def add(self, offset: float, nbytes: float, start_time: float,
            end_time: float, writer: Optional[int]) -> None:
        """Log one completed write."""
        self._rows += (offset, nbytes, start_time, end_time, writer)

    @property
    def offset(self) -> list:
        return self._rows[0::self._WIDTH]

    @property
    def nbytes(self) -> list:
        return self._rows[1::self._WIDTH]

    def __len__(self) -> int:
        return len(self._rows) // self._WIDTH

    def __getitem__(self, i: int) -> WriteRecord:
        n = len(self)
        if not -n <= i < n:
            raise IndexError("write log index out of range")
        k = (i % n) * self._WIDTH
        return WriteRecord(*self._rows[k:k + self._WIDTH])

    def __repr__(self) -> str:
        return f"WriteLog({list(self)!r})"


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
    @property
    def checksum(self) -> Optional[int]:
        """What a read-back computes; None if checksum-free."""
        return self._ledger.checksum_at(self._row)

    @checksum.setter
    def checksum(self, value: Optional[int]) -> None:
        self._ledger._checksum[self._row] = value

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

    Checksums handed over as a
    :class:`~repro.core.index.PristineChecksums` are stored as
    :data:`~repro.core.index.PRISTINE`.  The ledger keeps their
    provenance as two flat int columns, the first row and the rank of
    each such run, plus one reference to the application.  A pristine
    checksum is computed, and written into the column, the first time
    it is read: through a view, :meth:`checksum_at` or the
    ``checksum`` column.  Setting a view's checksum overrides it.
    """

    __slots__ = ("offset", "nbytes", "_checksum", "valid_bytes", "seq",
                 "writer", "corrupt", "_rows", "_mapped", "_app",
                 "_run_first", "_run_rank")

    def __init__(self):
        self.offset: List[float] = []
        self.nbytes: List[float] = []
        self._checksum: List = []
        self.valid_bytes: List[float] = []
        self.seq: List[int] = []
        self.writer: List[Optional[int]] = []
        self.corrupt: List[bool] = []
        self._rows: Dict[Tuple[float, float], int] = {}
        self._mapped = 0
        # Provenance of the pristine runs, made on the first one.
        self._app = self._run_first = self._run_rank = None

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
        if type(checksums) is PristineChecksums:
            if self._app is not checksums.app:
                if self._app is not None:
                    self._materialise()  # one application per ledger
                self._app = checksums.app
                self._run_first, self._run_rank = [], []
            self._run_first.append(first)
            self._run_rank.append(checksums.rank)
            self._checksum.extend(repeat(PRISTINE, n))
        else:
            self._checksum.extend(checksums)
        self.valid_bytes.extend(map(float, sizes))
        self.seq.extend(range(first_seq, first_seq + n))
        self.writer.extend(repeat(writer, n))
        self.corrupt.extend(repeat(False, n))
        return first

    def checksum_at(self, row: int) -> Optional[int]:
        """Row ``row``'s checksum, computing a pristine one."""
        value = self._checksum[row]
        if value is PRISTINE:
            k = bisect_right(self._run_first, row) - 1
            value = self._checksum[row] = PristineChecksums(
                self._app, self._run_rank[k]
            )[row - self._run_first[k]]
        return value

    def _materialise(self) -> None:
        """Compute every pristine checksum still pending."""
        if self._app is None:
            return
        for row, value in enumerate(self._checksum):
            if value is PRISTINE:
                self.checksum_at(row)
        self._app = self._run_first = self._run_rank = None

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
    blocks, the integrity layer's ground truth, and ``writes`` its
    :class:`WriteLog`: both columnar, building a :class:`StoredBlock`
    or :class:`WriteRecord` only when a reader asks for one.
    """

    path: str
    layout: StripeLayout
    create_time: float = 0.0
    writes: WriteLog = field(default_factory=WriteLog)
    payloads: Dict[Tuple[float, float], object] = field(default_factory=dict)
    blocks: BlockLedger = field(default_factory=BlockLedger)
    closed: bool = False

    @property
    def size(self) -> float:
        """Bytes from 0 to the end of the furthest extent written."""
        if not self.writes:
            return 0.0
        w = self.writes
        return max(map(operator.add, w.offset, w.nbytes))

    @property
    def bytes_written(self) -> float:
        """Total bytes written (extents may overlap; they all count)."""
        return sum(self.writes.nbytes)

    def record_write(self, offset: float, nbytes: float, start_time: float,
                     end_time: float, writer: Optional[int] = None,
                     payload: object = None) -> None:
        """Append one completed write to :attr:`writes`."""
        if self.closed:
            raise ValueError(f"{self.path}: write after close")
        self.writes.add(offset, nbytes, start_time, end_time, writer)
        if payload is not None:
            self.payloads[(offset, nbytes)] = payload

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
        return list(zip(self.writes.offset, self.writes.nbytes))
