"""BP-style indexing: characteristics, local and global indices.

The ADIOS BP format writes each process group's data followed by a
per-file local index; a master ("global") index maps every variable
block to (file, offset).  The paper additionally stores *data
characteristics* — per-block min/max — which let queries prune without
reading data ("enabling quickly searching for both the content as well
as the logical location of the data of interest").

Both indices are columnar.  An :class:`EntryTable` holds one file's
entries as parallel lists (variable, writer, offset, nbytes, checksum,
characteristics min/max/count) and builds an :class:`IndexEntry` only
when a reader indexes or iterates it.  :class:`LocalIndex` fills one
table — from entries, or straight from an application's per-rank
columns (:meth:`LocalIndex.add_output`), which is how transports index
a rank's output without building a Python object per block.  Rows from
an application are *pristine*: their checksum and min/max are pure
functions of (app, writer, variable, nbytes), so the table records
``PRISTINE`` and derives the digests the first time a reader asks.
:class:`GlobalIndex` keeps each file's finalized table as it is and
builds its per-variable and per-writer lookup maps on the first query
after a change.
"""

from __future__ import annotations

import hashlib
import operator
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import islice, repeat
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

__all__ = [
    "Characteristics",
    "IndexEntry",
    "EntryTable",
    "LocalIndex",
    "GlobalIndex",
    "PRISTINE",
    "PristineChecksums",
    "block_checksum",
    "entry_serialized_bytes",
]

_ENTRY_HEADER_BYTES = 64.0  # serialized per-entry overhead
_CHAR_BYTES = 24.0  # serialized characteristics block
_CKSUM_BYTES = 8.0  # serialized per-block checksum


class _Pristine:
    """The type of :data:`PRISTINE`; pickles and copies as itself."""

    __slots__ = ()

    def __reduce__(self) -> str:
        return "PRISTINE"

    def __repr__(self) -> str:
        return "PRISTINE"


#: Marks a ledger cell whose value is still the application's own
#: digest of the block (not yet computed, never overwritten).
PRISTINE = _Pristine()


class PristineChecksums(Sequence):
    """One rank's block checksums as an application defines them.

    ``app`` is an :class:`~repro.apps.base.AppKernel` with checksums on;
    item ``j`` is :func:`block_checksum` of the rank's ``j``-th variable
    block, computed on access and not kept.  What
    ``AppKernel.blocks_of`` hands the storage layer, whose
    ``BlockLedger`` stores the rows as :data:`PRISTINE` and keeps only
    ``(app, rank)`` as their provenance.
    """

    __slots__ = ("app", "rank")

    def __init__(self, app, rank: int):
        self.app = app
        self.rank = rank

    def __len__(self) -> int:
        return len(self.app.var_names)

    def __getitem__(self, j):
        if isinstance(j, slice):
            return [self[k] for k in range(*j.indices(len(self)))]
        app = self.app
        return block_checksum(app.var_names[j], self.rank, app.block_sizes[j])


def entry_serialized_bytes(var: str, characteristics: bool,
                           checksum: bool) -> float:
    """Serialized size of one index entry of variable ``var``."""
    extra = _CHAR_BYTES if characteristics else 0.0
    if checksum:
        extra += _CKSUM_BYTES
    return _ENTRY_HEADER_BYTES + len(var) + extra


def block_checksum(var: str, writer: int, nbytes: float) -> int:
    """Deterministic 64-bit content checksum of one variable block.

    The simulator stores no payload bytes, so a block's *content* is
    fully determined by what produced it: (variable, writer, size).
    Hashing that triple stands in for checksumming the real bytes —
    the writer computes it at write time, the index carries it, and
    any in-place mutation of the stored copy (bit flip, tear) breaks
    the equality exactly as a real CRC would.  Rewrites of the same
    block (retries, relocated incarnations) reproduce the same value,
    because the content is the same.
    """
    digest = hashlib.blake2b(
        f"{var}|{int(writer)}|{float(nbytes)!r}".encode(), digest_size=8
    ).digest()
    return int.from_bytes(digest, "little")


@dataclass(frozen=True)
class Characteristics:
    """Per-block data characteristics (min/max/count)."""

    minimum: float
    maximum: float
    count: int

    def __post_init__(self):
        if self.count < 0:
            raise ValueError("count must be >= 0")
        if self.count > 0 and self.minimum > self.maximum:
            raise ValueError("minimum must be <= maximum")

    @classmethod
    def of(cls, data: np.ndarray) -> "Characteristics":
        """Characteristics of an actual array."""
        arr = np.asarray(data)
        if arr.size == 0:
            return cls(0.0, 0.0, 0)
        return cls(float(arr.min()), float(arr.max()), int(arr.size))

    def merge(self, other: "Characteristics") -> "Characteristics":
        if self.count == 0:
            return other
        if other.count == 0:
            return self
        return Characteristics(
            min(self.minimum, other.minimum),
            max(self.maximum, other.maximum),
            self.count + other.count,
        )

    def overlaps(self, low: float, high: float) -> bool:
        """Could a value in [low, high] live in this block?"""
        if self.count == 0:
            return False
        return not (high < self.minimum or low > self.maximum)


@dataclass(frozen=True)
class IndexEntry:
    """One variable block: who wrote which variable where.

    ``checksum`` is the per-block content checksum
    (:func:`block_checksum`) when the writing application computed
    one; ``None`` for checksum-free output sets, whose blocks a scrub
    can only classify as unverified.
    """

    var: str
    writer: int
    offset: float
    nbytes: float
    characteristics: Optional[Characteristics] = None
    checksum: Optional[int] = None

    def __post_init__(self):
        if self.offset < 0 or self.nbytes < 0:
            raise ValueError("offset and nbytes must be non-negative")
        object.__setattr__(self, "_serialized", entry_serialized_bytes(
            self.var, self.characteristics is not None,
            self.checksum is not None,
        ))

    @property
    def serialized_bytes(self) -> float:
        return self._serialized


class EntryTable(Sequence):
    """One file's index entries as columns; entries are built on access.

    Row ``i`` is the entry ``IndexEntry(var[i], writer[i], offset[i],
    nbytes[i], Characteristics(cmin[i], cmax[i], ccount[i]),
    checksum[i])``; ``ccount[i] is None`` marks an entry without
    characteristics.  Indexing or iterating the table builds those
    entries afresh, equal to the ones that went in.

    Rows appended from an application (:meth:`add_output`) are
    pristine: the table keeps one reference to the application, and
    its ``writer``/``var``/``nbytes`` columns are the provenance.  The
    checksum and min/max of such a row hold :data:`PRISTINE` until a
    reader needs them.  Indexing or iterating a row computes that
    row's digests; reading the ``checksum``, ``cmin`` or ``cmax``
    column computes every pending row.  Either way the value is
    written into the column, so it is computed once.  Nothing else
    computes a digest: appending, sorting, :meth:`permute` and
    :attr:`serialized_bytes` leave pristine cells as they are.
    """

    __slots__ = ("var", "writer", "offset", "nbytes", "_checksum",
                 "_cmin", "_cmax", "ccount", "_app")

    #: The per-row columns, in the order :meth:`permute` moves them.
    _COLUMNS = ("var", "writer", "offset", "nbytes", "_checksum",
                "_cmin", "_cmax", "ccount")

    def __init__(self, entries: Iterable[IndexEntry] = ()):
        self.var: List[str] = []
        self.writer: List[int] = []
        self.offset: List[float] = []
        self.nbytes: List[float] = []
        self._checksum: List = []
        self._cmin: List = []
        self._cmax: List = []
        self.ccount: List[Optional[int]] = []
        self._app = None  # the application of the pristine rows
        for e in entries:
            self.append(e)

    def append(self, e: IndexEntry) -> None:
        self.var.append(e.var)
        self.writer.append(e.writer)
        self.offset.append(e.offset)
        self.nbytes.append(e.nbytes)
        self._checksum.append(e.checksum)
        ch = e.characteristics
        if ch is None:
            self._cmin.append(0.0)
            self._cmax.append(0.0)
            self.ccount.append(None)
        else:
            self._cmin.append(ch.minimum)
            self._cmax.append(ch.maximum)
            self.ccount.append(ch.count)

    def add_output(self, app, rank: int, base_offset: float) -> None:
        """Append one rank's pristine rows laid back to back from
        ``base_offset`` (see :meth:`LocalIndex.add_output`)."""
        if self._app is not app:
            if self._app is not None:
                self._materialise()  # one application per table
            self._app = app
        sizes = app.block_sizes
        n = len(sizes)
        self.var.extend(app.var_names)
        self.writer.extend(repeat(rank, n))
        offset = base_offset
        for nb in sizes:
            self.offset.append(offset)
            offset += nb
        self.nbytes.extend(sizes)
        self._checksum.extend(
            repeat(PRISTINE, n) if app.checksums else app.block_checksums(rank)
        )
        self._cmin.extend(repeat(PRISTINE, n))
        self._cmax.extend(repeat(PRISTINE, n))
        self.ccount.extend(app.block_counts)

    # -- digests on demand -------------------------------------------------
    def _resolve(self, i: int) -> None:
        """Compute row ``i``'s pristine cells into the columns."""
        var, rank = self.var[i], self.writer[i]
        if self._checksum[i] is PRISTINE:
            self._checksum[i] = block_checksum(var, rank, self.nbytes[i])
        if self._cmin[i] is PRISTINE:
            self._cmin[i], self._cmax[i] = self._app.min_max(rank, var)

    def _materialise(self) -> None:
        """Compute every pending pristine cell."""
        if self._app is None:
            return
        for i, lo in enumerate(self._cmin):
            if lo is PRISTINE or self._checksum[i] is PRISTINE:
                self._resolve(i)
        self._app = None

    @property
    def checksum(self) -> List[Optional[int]]:
        """Per-row content checksums (None: checksum-free)."""
        self._materialise()
        return self._checksum

    @property
    def cmin(self) -> List[float]:
        """Per-row characteristics minima."""
        self._materialise()
        return self._cmin

    @property
    def cmax(self) -> List[float]:
        """Per-row characteristics maxima."""
        self._materialise()
        return self._cmax

    def __len__(self) -> int:
        return len(self.var)

    def __getitem__(self, i: int) -> IndexEntry:
        count = self.ccount[i]  # raises IndexError past the end
        if self._app is not None and (self._cmin[i] is PRISTINE
                                      or self._checksum[i] is PRISTINE):
            self._resolve(i)
        return IndexEntry(
            self.var[i], self.writer[i], self.offset[i], self.nbytes[i],
            None if count is None
            else Characteristics(self._cmin[i], self._cmax[i], count),
            self._checksum[i],
        )

    def __iter__(self) -> Iterator[IndexEntry]:
        return map(self.__getitem__, range(len(self.var)))

    def rows(self, *then: str) -> Sequence:
        """Row numbers ordered by offset, then by the named columns
        (stable: full ties keep insertion order)."""
        offs = self.offset
        if all(map(operator.lt, offs, islice(offs, 1, None))):
            return range(len(offs))  # offsets strictly increase
        order = list(range(len(offs)))
        for name in reversed(("offset",) + then):
            order.sort(key=getattr(self, name).__getitem__)
        return order

    def permute(self, order: Sequence) -> None:
        """Reorder every column to ``order`` (a permutation of rows);
        pristine cells move with their rows."""
        for name in self._COLUMNS:
            col = getattr(self, name)
            col[:] = [col[i] for i in order]

    @property
    def serialized_bytes(self) -> float:
        """Σ of the entries' :attr:`IndexEntry.serialized_bytes`."""
        n = len(self.var)
        return (
            _ENTRY_HEADER_BYTES * n
            + sum(map(len, self.var))
            + _CHAR_BYTES * (n - self.ccount.count(None))
            + _CKSUM_BYTES * (n - self._checksum.count(None))
        )


class LocalIndex:
    """The per-sub-file index a sub-coordinator assembles.

    Entries arrive out of order (adaptive writers interleave with the
    group's own); :meth:`finalize` sorts and seals, mirroring the SC's
    "sort and merge the index pieces" step.  The entries live in one
    :class:`EntryTable`; :meth:`add_output` appends one rank's whole
    output as pristine rows, computing no digest.
    """

    def __init__(self, file_path: str):
        self.file_path = file_path
        self._table = EntryTable()
        self._final = False

    def _check_open(self) -> None:
        if self._final:
            raise RuntimeError("index already finalized")

    def add(self, entries: Iterable[IndexEntry]) -> None:
        self._check_open()
        for e in entries:
            self._table.append(e)

    def add_output(self, app, rank: int, base_offset: float) -> None:
        """Index one rank's output laid back to back from ``base_offset``.

        ``app`` is an :class:`~repro.apps.base.AppKernel`: its variable
        names, block sizes and counts are shared by every rank, and the
        rank's checksums and characteristics are left pristine, to be
        derived when a reader asks.  Equal to ``add(
        app.index_entries(rank, base_offset))`` without the objects or
        the digests.
        """
        self._check_open()
        self._table.add_output(app, rank, base_offset)

    def finalize(self) -> EntryTable:
        """Sort by (offset, var) and seal; returns the entry table,
        which the global index and the file's footer then share."""
        self._final = True
        order = self._table.rows("var")
        if not isinstance(order, range):
            self._table.permute(order)
        return self._table

    @property
    def entries(self) -> Tuple[IndexEntry, ...]:
        return tuple(self._table)

    def __len__(self) -> int:
        return len(self._table)

    @property
    def serialized_bytes(self) -> float:
        return float(self._table.serialized_bytes + 128.0)

    def check_no_overlap(self) -> None:
        """Invariant: data extents within one sub-file never overlap."""
        t = self._table
        ends = list(map(operator.add, t.offset, t.nbytes))
        order = t.rows("nbytes")
        for prev, row in zip(order, islice(order, 1, None)):
            if t.offset[row] < ends[prev] - 1e-6:
                raise ValueError(
                    f"{self.file_path}: overlapping extents "
                    f"[{t.offset[prev]},{ends[prev]}) and starting at "
                    f"{t.offset[row]}"
                )


class GlobalIndex:
    """The master index the coordinator writes at the end of output.

    Maps every variable block to ``(file, IndexEntry)`` so any block is
    a single lookup + direct read, "sometimes resulting in improved
    performance" vs single-file formats (paper, Section IV-C).  Each
    file's entries are an :class:`EntryTable`; a finalized local
    index's table is kept as it is, not copied.
    """

    def __init__(self):
        self._tables: Dict[str, EntryTable] = {}
        # Built on the first query after a change: var -> (file
        # ordinals, rows) in (file added, row) order, and per var
        # writer -> positions in those lists.
        self._hits: Optional[Dict[str, Tuple[List[int], List[int]]]] = None
        self._writer_hits: Dict[str, Dict[int, List[int]]] = {}

    def add_file(self, file_path: str, entries: Iterable[IndexEntry]) -> None:
        if file_path in self._tables:
            raise ValueError(f"duplicate file {file_path!r} in global index")
        self._tables[file_path] = (
            entries if isinstance(entries, EntryTable)
            else EntryTable(entries)
        )
        self._hits = None
        self._writer_hits = {}

    def _var_hits(self) -> Dict[str, Tuple[List[int], List[int]]]:
        if self._hits is None:
            hits: Dict[str, Tuple[List[int], List[int]]] = {}
            for k, t in enumerate(self._tables.values()):
                for row, var in enumerate(t.var):
                    h = hits.get(var)
                    if h is None:
                        h = hits[var] = ([], [])
                    h[0].append(k)
                    h[1].append(row)
            self._hits = hits
        return self._hits

    def _positions(self, var: str, writer: Optional[int]) -> Sequence:
        """Positions in ``var``'s hit lists, optionally one writer's."""
        files, rows = self._var_hits().get(var, ((), ()))
        if writer is None:
            return range(len(rows))
        by_writer = self._writer_hits.get(var)
        if by_writer is None:
            tables = list(self._tables.values())
            by_writer = self._writer_hits[var] = {}
            for pos, (k, row) in enumerate(zip(files, rows)):
                by_writer.setdefault(tables[k].writer[row], []).append(pos)
        return by_writer.get(writer, ())

    def _entries(self, var: str, positions) -> List[Tuple[str, IndexEntry]]:
        files, rows = self._var_hits()[var]
        paths = list(self._tables)
        tables = list(self._tables.values())
        return [(paths[files[p]], tables[files[p]][rows[p]])
                for p in positions]

    @property
    def files(self) -> List[str]:
        return list(self._tables)

    @property
    def variables(self) -> List[str]:
        return sorted(self._var_hits())

    @property
    def n_blocks(self) -> int:
        return sum(len(t) for t in self._tables.values())

    def entries_by_file(self) -> Dict[str, List[IndexEntry]]:
        """``file -> [entries]``, each file's list in (offset, var,
        writer) order.

        The scrub/fsck walk order: deterministic regardless of the
        message interleaving that built the index.
        """
        return {path: [t[row] for row in t.rows("var", "writer")]
                for path, t in self._tables.items()}

    def lookup(
        self, var: str, writer: Optional[int] = None
    ) -> List[Tuple[str, IndexEntry]]:
        """All blocks of *var* (optionally one writer's)."""
        positions = self._positions(var, writer)
        return self._entries(var, positions) if positions else []

    def query_value_range(
        self, var: str, low: float, high: float
    ) -> List[Tuple[str, IndexEntry]]:
        """Blocks of *var* whose characteristics overlap [low, high].

        Blocks without characteristics are conservatively returned.
        """
        files, rows = self._var_hits().get(var, ((), ()))
        tables = list(self._tables.values())
        cols: Dict[int, tuple] = {}  # file ordinal -> its three columns
        keep = []
        for pos, (k, row) in enumerate(zip(files, rows)):
            c = cols.get(k)
            if c is None:
                t = tables[k]
                c = cols[k] = (t.ccount, t.cmin, t.cmax)
            count = c[0][row]
            if count is None or (
                count > 0 and not (high < c[1][row] or low > c[2][row])
            ):
                keep.append(pos)
        return self._entries(var, keep) if keep else []

    def total_bytes(self, var: Optional[str] = None) -> float:
        hits = self._var_hits()
        tables = list(self._tables.values())
        per_var = (
            hits.values() if var is None else [hits.get(var, ((), ()))]
        )
        return sum(
            tables[k].nbytes[row]
            for files, rows in per_var
            for k, row in zip(files, rows)
        )

    @property
    def serialized_bytes(self) -> float:
        return float(
            sum(t.serialized_bytes + 32.0 * len(t)
                for t in self._tables.values())
            + 256.0
        )
