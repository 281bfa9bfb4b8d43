"""The columnar index and block ledger against object-per-block references.

The local/global indices and the stored-block ledger keep per-block
state as per-file columns and build ``IndexEntry``/``Characteristics``/
``StoredBlock`` objects only on access.  These tests pin that:

* what a reader sees — materialised entries, ``entries_by_file``,
  ``lookup``, ``query_value_range``, totals and serialised sizes — is
  ``==`` to a small object-per-entry reference built the way the
  indices used to be, over random block sets (checksum-free apps and
  entries without characteristics included);
* a ``StoredBlock`` is a write-through view of its ledger row;
* storing and indexing 10,000 blocks creates no per-block object;
* a whole 1,024-rank adaptive run and MPI-IO run leave no per-rank
  object alive: write records, writer timings and digests are columns.
"""

from __future__ import annotations

import gc
import hashlib
import random
from typing import Dict, List, Tuple

import pytest

from repro.apps import AppKernel, Variable
from repro.core.index import (
    Characteristics,
    GlobalIndex,
    IndexEntry,
    LocalIndex,
    block_checksum,
)
from repro.core.transports import AdaptiveTransport, MpiIoTransport
from repro.lustre.file import SimFile
from repro.lustre.layout import StripeLayout
from repro.machines import jaguar


# -- the object-per-entry reference -----------------------------------------
def ref_entries(app: AppKernel, rank: int, base: float) -> List[IndexEntry]:
    """One rank's entries, built object by object from the digests."""
    out = []
    offset = base
    for var in app.variables:
        digest = hashlib.sha256(
            f"{app.name}:{rank}:{var.name}".encode()
        ).digest()
        lo, hi = var.value_range
        span = hi - lo
        a = lo + span * (int.from_bytes(digest[8:16], "little") / 2.0**64)
        b = lo + span * (int.from_bytes(digest[16:24], "little") / 2.0**64)
        if b < a:
            a, b = b, a
        out.append(IndexEntry(
            var=var.name, writer=rank, offset=offset, nbytes=var.nbytes,
            characteristics=Characteristics(float(a), float(b), var.count),
            checksum=(block_checksum(var.name, rank, var.nbytes)
                      if app.checksums else None),
        ))
        offset += var.nbytes
    return out


class RefGlobalIndex:
    """``var -> [(file, entry)]`` lists, as the global index used to be."""

    def __init__(self):
        self.by_var: Dict[str, List[Tuple[str, IndexEntry]]] = {}
        self.files: List[str] = []

    def add_file(self, path: str, entries) -> None:
        self.files.append(path)
        for e in entries:
            self.by_var.setdefault(e.var, []).append((path, e))

    def entries_by_file(self):
        out = {p: [] for p in self.files}
        for hits in self.by_var.values():
            for path, e in hits:
                out[path].append(e)
        for entries in out.values():
            entries.sort(key=lambda e: (e.offset, e.var, e.writer))
        return out

    def lookup(self, var, writer=None):
        hits = self.by_var.get(var, [])
        return [(f, e) for f, e in hits if writer is None or e.writer == writer]

    def query_value_range(self, var, low, high):
        return [(f, e) for f, e in self.by_var.get(var, [])
                if e.characteristics is None
                or e.characteristics.overlaps(low, high)]

    def total_bytes(self, var=None):
        if var is not None:
            return sum(e.nbytes for _, e in self.by_var.get(var, []))
        return sum(e.nbytes for hits in self.by_var.values() for _, e in hits)

    @property
    def serialized_bytes(self):
        return float(sum(e.serialized_bytes + 32.0
                         for hits in self.by_var.values()
                         for _, e in hits) + 256.0)


def _random_app(rng: random.Random, k: int) -> AppKernel:
    variables = []
    for i in range(rng.randint(1, 4)):
        lo = rng.uniform(-1e3, 1e3)
        variables.append(Variable(
            f"v{i}" + "x" * rng.randint(0, 5),
            shape=(rng.randint(1, 4000),),
            dtype=rng.choice(["f8", "f4", "i8", "i4"]),
            value_range=(lo, lo + rng.uniform(0.0, 50.0)),
        ))
    return AppKernel(f"app{k}", variables, checksums=rng.random() < 0.6)


def _random_case(seed: int):
    """(new global, reference global, [(local, reference entries)])."""
    rng = random.Random(seed)
    app = _random_app(rng, seed)
    new, ref = GlobalIndex(), RefGlobalIndex()
    locals_ = []
    for k in range(rng.randint(1, 6)):
        path = f"/case{seed}/{k:04d}.bp"
        local = LocalIndex(path)
        pieces: List[IndexEntry] = []
        for _ in range(rng.randint(0, 12)):
            rank = rng.randrange(64)
            # Coarse offsets so pieces collide, exercising stable ties.
            base = float(rng.randrange(8)) * app.per_process_bytes
            entries = ref_entries(app, rank, base)
            if rng.random() < 0.3:
                # Pieces without characteristics or checksums, which
                # only the entry path can carry.
                entries = [IndexEntry(e.var, e.writer, e.offset, e.nbytes)
                           for e in entries]
                local.add(entries)
            elif rng.random() < 0.2:
                local.add(app.index_entries(rank, base))
            else:
                local.add_output(app, rank, base)
            pieces.extend(entries)
        assert local.serialized_bytes == float(
            sum(e.serialized_bytes for e in pieces) + 128.0
        )
        pieces.sort(key=lambda e: (e.offset, e.var))
        table = local.finalize()
        if rng.random() < 0.25:
            new.add_file(path, list(table))  # the entry path
        else:
            new.add_file(path, table)
        ref.add_file(path, pieces)
        locals_.append((table, pieces))
    return app, new, ref, locals_


@pytest.mark.parametrize("seed", range(40))
def test_columnar_index_equals_reference(seed):
    app, new, ref, locals_ = _random_case(seed)
    for table, pieces in locals_:
        assert list(table) == pieces
        assert len(table) == len(pieces)
        if pieces:
            assert table[-1] == pieces[-1]
    assert new.files == ref.files
    assert new.entries_by_file() == ref.entries_by_file()
    assert new.variables == sorted(ref.by_var)
    assert new.n_blocks == sum(len(h) for h in ref.by_var.values())
    assert new.serialized_bytes == ref.serialized_bytes
    assert new.total_bytes() == ref.total_bytes()
    rng = random.Random(-seed)
    for var in app.var_names + ("absent",):
        assert new.lookup(var) == ref.lookup(var)
        assert new.total_bytes(var) == ref.total_bytes(var)
        for writer in (0, 1, 63, rng.randrange(64), 99):
            assert new.lookup(var, writer) == ref.lookup(var, writer)
        for _ in range(5):
            lo = rng.uniform(-1.2e3, 1.2e3)
            hi = lo + rng.uniform(0.0, 100.0)
            assert (new.query_value_range(var, lo, hi)
                    == ref.query_value_range(var, lo, hi))


def test_index_entries_are_the_reference():
    rng = random.Random(7)
    for k in range(20):
        app = _random_app(rng, k)
        for rank in (0, 5, 4095):
            base = rng.uniform(0.0, 1e9)
            assert app.index_entries(rank, base) == ref_entries(
                app, rank, base
            )


def test_overlap_check_reports_the_first_collision():
    local = LocalIndex("/o.bp")
    local.add([IndexEntry("a", 0, 10.0, 10.0), IndexEntry("b", 0, 0.0, 5.0),
               IndexEntry("c", 1, 0.0, 12.0)])
    with pytest.raises(ValueError, match=r"\[0.0,5.0\) and starting at 0.0"):
        local.check_no_overlap()


# -- the stored-block ledger ------------------------------------------------
def _file() -> SimFile:
    return SimFile(path="/b.bp", layout=StripeLayout((0,), stripe_size=1e15))


def test_stored_block_is_a_write_through_view():
    f = _file()
    first = f.store_blocks(100.0, ((8.0, 16.0), (11, 22)), 5, writer=3)
    assert first == 0
    blk = f.block_at(108.0, 16.0)
    assert (blk.offset, blk.nbytes, blk.checksum, blk.valid_bytes,
            blk.seq, blk.writer, blk.corrupt) == (108.0, 16.0, 22, 16.0,
                                                  6, 3, False)
    blk.checksum ^= 1
    blk.valid_bytes = 4.0
    blk.corrupt = True
    again = f.block_at(108.0, 16.0)
    assert again == blk
    assert (again.checksum, again.valid_bytes, again.corrupt) == (23, 4.0,
                                                                  True)
    assert again.torn
    with pytest.raises(AttributeError):
        blk.offset = 0.0
    # A rewrite replaces the block; the old view no longer reaches it.
    f.store_blocks(108.0, ((16.0,), (22,)), 9, writer=3)
    fresh = f.block_at(108.0, 16.0)
    assert (fresh.checksum, fresh.torn, fresh.corrupt, fresh.seq) == (
        22, False, False, 9)
    blk.corrupt = True
    assert not f.block_at(108.0, 16.0).corrupt
    assert [b.offset for b in f.stored_blocks()] == [100.0, 108.0]
    assert len(f.blocks) == 2 and (100.0, 8.0) in f.blocks
    del f.blocks[(100.0, 8.0)]
    assert f.block_at(100.0, 8.0) is None
    assert f.blocks.pop((100.0, 8.0), None) is None
    assert f.blocks.pop((108.0, 16.0)).seq == 9
    assert f.stored_blocks() == []
    with pytest.raises(KeyError):
        del f.blocks[(108.0, 16.0)]


# -- no per-block objects ----------------------------------------------------
N_BLOCKS = 10_000
MAX_GROWTH = 64


def _growth(fill) -> int:
    gc.collect()
    before = len(gc.get_objects())
    kept = fill()
    gc.collect()
    growth = len(gc.get_objects()) - before
    del kept
    return growth


def _app10() -> AppKernel:
    return AppKernel("gc", [Variable(f"v{i}", (16,)) for i in range(10)])


def test_transport_path_builds_no_per_block_objects():
    app = _app10()

    def fill():
        f = _file()
        local = LocalIndex(f.path)
        for rank in range(N_BLOCKS // len(app.variables)):
            base = rank * app.per_process_bytes
            f.store_blocks(base, app.blocks_of(rank), 1 + 10 * rank, rank)
            local.add_output(app, rank, base)
        index = GlobalIndex()
        index.add_file(f.path, local.finalize())
        assert len(f.blocks.offset) == index.n_blocks == N_BLOCKS
        return f, local, index

    assert _growth(fill) <= MAX_GROWTH


def test_entry_path_keeps_no_per_block_objects():
    app = _app10()

    def fill():
        f = _file()
        local = LocalIndex(f.path)
        for rank in range(N_BLOCKS // len(app.variables)):
            base = rank * app.per_process_bytes
            for i, e in enumerate(app.index_entries(rank, base)):
                f.store_block(e.offset, e.nbytes, e.checksum,
                              1 + 10 * rank + i, writer=rank)
            local.add(app.index_entries(rank, base))
        index = GlobalIndex()
        index.add_file(f.path, local.finalize())
        assert index.n_blocks == N_BLOCKS
        return f, local, index

    assert _growth(fill) <= MAX_GROWTH


# -- no per-rank objects in a whole run --------------------------------------
RUN_RANKS = 1024
RUN_OSTS = 32
#: Objects a run may leave alive per output file (its write log,
#: ledger and index columns), well under one per rank: a write record
#: and a writer timing kept per rank grow either run by ~2,000.
PER_FILE = 32


@pytest.mark.parametrize("make", [AdaptiveTransport, MpiIoTransport],
                         ids=["adaptive", "mpiio"])
def test_whole_run_keeps_no_per_rank_objects(make):
    machine = jaguar(n_osts=RUN_OSTS).build(n_ranks=RUN_RANKS, seed=1)
    app = AppKernel("gc", [Variable(f"v{i}", (1024,)) for i in range(4)])
    result = None

    def fill():
        nonlocal result
        result = make().run(machine, app, output_name="gc")
        return result

    growth = _growth(fill)
    assert [w.rank for w in result.per_writer] == list(range(RUN_RANKS))
    assert growth <= PER_FILE * len(result.files) + MAX_GROWTH
