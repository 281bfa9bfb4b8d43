"""Digests are computed on demand, never on the healthy write path.

A block's checksum and characteristics min/max are pure functions of
(app, rank, variable, size), so the index tables and the stored-block
ledgers keep an application's rows *pristine* and derive the digests
the first time a reader asks.  These tests pin that:

* a healthy 256-rank adaptive run and a 256-rank MPI-IO run call
  ``block_checksum`` and ``AppKernel._var_digest`` zero times, and a
  reader then computes each digest once;
* whichever reader comes first, every checksum, characteristic,
  ``entries_by_file``, ``lookup``, ``query_value_range`` and
  ``StoredBlock`` read equals an eager reference built here from the
  hash definitions, also after ``permute``, an injected bit flip, an
  fsck rewrite and ``del``/``pop``;
* a checksum-free application keeps ``None`` checksums and the same
  serialized sizes;
* the write log and the per-writer timing columns read back as the
  record objects they replace.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict, List

import numpy as np
import pytest

import repro.core.index as index_mod
from repro.apps import AppKernel, Variable
from repro.core.bp import BpReader
from repro.core.index import Characteristics, IndexEntry, LocalIndex
from repro.core.transports import AdaptiveTransport, MpiIoTransport
from repro.core.transports.base import WriterTiming
from repro.faults.injector import _CKSUM_FLIP
from repro.lustre.file import WriteRecord
from repro.machines import jaguar
from repro.tools.fsck import _repair

N_RANKS = 256
N_OSTS = 16
TRANSPORTS = {"adaptive": AdaptiveTransport, "mpiio": MpiIoTransport}


def _app(checksums: bool = True) -> AppKernel:
    return AppKernel("digests", [
        Variable("a", shape=(4096,)),
        Variable("bb", shape=(1024,), dtype="f4", value_range=(-5.0, 3.0)),
        Variable("c", shape=(512,), dtype="i8", value_range=(0.0, 1e6)),
    ], checksums=checksums)


# -- the eager reference ------------------------------------------------------
def ref_checksum(var: str, writer: int, nbytes: float) -> int:
    digest = hashlib.blake2b(
        f"{var}|{int(writer)}|{float(nbytes)!r}".encode(), digest_size=8
    ).digest()
    return int.from_bytes(digest, "little")


def ref_entries(app: AppKernel, rank: int, base: float) -> List[IndexEntry]:
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
            var.name, rank, offset, var.nbytes,
            Characteristics(float(a), float(b), var.count),
            ref_checksum(var.name, rank, var.nbytes) if app.checksums
            else None,
        ))
        offset += var.nbytes
    return out


def reference(machine, app, res) -> Dict[str, List[IndexEntry]]:
    """``path -> entries`` in scrub order, from each file's write log:
    every data write is one rank's whole output at its offset (the
    rest are index writes)."""
    ref = {}
    for path in res.index.files:
        f = machine.fs.lookup(path)
        entries = [e for w in f.writes
                   if w.nbytes == app.per_process_bytes
                   for e in ref_entries(app, w.writer, w.offset)]
        entries.sort(key=lambda e: (e.offset, e.var, e.writer))
        ref[path] = entries
    return ref


# -- counting the digests -----------------------------------------------------
@pytest.fixture
def digests(monkeypatch) -> Dict[str, int]:
    """Counts of ``block_checksum`` and ``_var_digest`` calls."""
    calls = {"checksum": 0, "characteristics": 0}
    checksum = index_mod.block_checksum
    var_digest = AppKernel._var_digest

    def counted_checksum(*args):
        calls["checksum"] += 1
        return checksum(*args)

    def counted_var_digest(self, *args):
        calls["characteristics"] += 1
        return var_digest(self, *args)

    monkeypatch.setattr(index_mod, "block_checksum", counted_checksum)
    monkeypatch.setattr(AppKernel, "_var_digest", counted_var_digest)
    return calls


def _run(name: str, checksums: bool = True):
    machine = jaguar(n_osts=N_OSTS).build(n_ranks=N_RANKS, seed=5)
    app = _app(checksums)
    res = TRANSPORTS[name]().run(machine, app, output_name="dig")
    return machine, app, res


def _stored(machine, res):
    return {path: machine.fs.lookup(path).stored_blocks()
            for path in res.index.files}


@pytest.mark.parametrize("name", sorted(TRANSPORTS))
def test_healthy_run_computes_no_digest(name, digests):
    machine, app, res = _run(name)
    assert digests == {"checksum": 0, "characteristics": 0}
    ref = reference(machine, app, res)
    n_blocks = N_RANKS * len(app.variables)
    # Sizes come from the columns, not from the digests.
    assert res.index.serialized_bytes == float(
        sum(e.serialized_bytes + 32.0 for es in ref.values() for e in es)
        + 256.0
    )
    assert digests == {"checksum": 0, "characteristics": 0}
    # A reader computes each digest once, index and ledger each.
    assert res.index.entries_by_file() == ref
    assert digests == {"checksum": n_blocks, "characteristics": n_blocks}
    assert res.index.entries_by_file() == ref
    for blocks in _stored(machine, res).values():
        for blk in blocks:
            blk.checksum
    assert digests == {"checksum": 2 * n_blocks,
                       "characteristics": n_blocks}
    for blocks in _stored(machine, res).values():
        for blk in blocks:
            blk.checksum
    assert digests["checksum"] == 2 * n_blocks


def _check_reads(machine, app, res, ref, first: str) -> None:
    """Every reader agrees with ``ref``, starting with ``first``."""
    index = res.index
    rng = random.Random(first)

    def entries():
        assert index.entries_by_file() == ref

    def blocks():
        for path, stored in _stored(machine, res).items():
            want = {(e.offset, e.nbytes): e.checksum for e in ref[path]}
            assert {(b.offset, b.nbytes): b.checksum
                    for b in stored} == want

    def lookups():
        for var in app.var_names:
            assert index.lookup(var) == [
                (p, e) for p in ref for e in ref[p] if e.var == var
            ]
            writer = rng.randrange(N_RANKS)
            assert index.lookup(var, writer) == [
                (p, e) for p in ref for e in ref[p]
                if e.var == var and e.writer == writer
            ]

    def queries():
        for var in app.variables:
            lo, hi = var.value_range
            for _ in range(4):
                a = rng.uniform(lo, hi)
                b = a + rng.uniform(0.0, (hi - lo) / 4)
                assert index.query_value_range(var.name, a, b) == [
                    (p, e) for p in ref for e in ref[p]
                    if e.var == var.name and e.characteristics.overlaps(a, b)
                ]

    readers = {"entries": entries, "blocks": blocks, "lookups": lookups,
               "queries": queries}
    readers.pop(first)()
    for read in readers.values():
        read()


@pytest.mark.parametrize("first", ["entries", "blocks", "lookups",
                                   "queries"])
@pytest.mark.parametrize("name", sorted(TRANSPORTS))
def test_reads_equal_the_eager_reference(name, first):
    machine, app, res = _run(name)
    _check_reads(machine, app, res, reference(machine, app, res), first)


def test_permute_moves_pristine_rows():
    app = _app()
    rng = random.Random(11)
    ranks = list(range(40))
    rng.shuffle(ranks)
    local = LocalIndex("/p.bp")
    pieces = []
    for rank in ranks:
        base = float(rng.randrange(40)) * app.per_process_bytes * 2
        entries = ref_entries(app, rank, base)
        if rng.random() < 0.25:
            local.add(entries)  # explicit rows among the pristine ones
        else:
            local.add_output(app, rank, base)
        pieces.extend(entries)
    table = local.finalize()  # sorts, so permutes pristine rows
    pieces.sort(key=lambda e: (e.offset, e.var))
    order = list(range(len(table)))
    rng.shuffle(order)
    table.permute(order)  # before any digest is read
    assert list(table) == [pieces[i] for i in order]
    assert table.checksum == [pieces[i].checksum for i in order]
    assert table.cmin == [pieces[i].characteristics.minimum for i in order]


@pytest.mark.parametrize("name", sorted(TRANSPORTS))
def test_overrides_bit_flip_rewrite_and_delete(name, digests):
    machine, app, res = _run(name)
    ref = reference(machine, app, res)
    path = res.index.files[0]
    f = machine.fs.lookup(path)
    e0, e1, e2, e3 = ref[path][:4]
    # An explicit write overrides the pristine value without computing.
    f.block_at(e0.offset, e0.nbytes).checksum = 12345
    assert digests["checksum"] == 0
    assert f.block_at(e0.offset, e0.nbytes).checksum == 12345
    # The injector's bit flip: corrupt, and the stored checksum differs.
    flipped = f.block_at(e1.offset, e1.nbytes)
    flipped.corrupt = True
    flipped.checksum ^= _CKSUM_FLIP
    assert f.block_at(e1.offset, e1.nbytes).checksum == (
        e1.checksum ^ _CKSUM_FLIP)
    # Drop one block, pop another: the views still read their rows.
    del f.blocks[(e2.offset, e2.nbytes)]
    assert f.blocks.pop((e3.offset, e3.nbytes)).checksum == e3.checksum
    reader = BpReader(machine.fs, index=res.index)
    report = reader.scrub()
    assert sorted((b.offset, b.status) for b in report.bad) == sorted([
        (e0.offset, "corrupt"), (e1.offset, "corrupt"),
        (e2.offset, "missing"), (e3.offset, "missing"),
    ])
    # The fsck rewrite restores every block from its index entry.
    outcome = _repair(machine, reader, report)
    assert outcome == {"repaired": 4, "collected": 0, "unrepairable": 0}
    assert reader.scrub().ok
    _check_reads(machine, app, res, ref, "blocks")


@pytest.mark.parametrize("name", sorted(TRANSPORTS))
def test_checksum_free_app_keeps_none(name, digests):
    machine, app, res = _run(name, checksums=False)
    ref = reference(machine, app, res)
    assert res.index.serialized_bytes == float(
        sum(e.serialized_bytes + 32.0 for es in ref.values() for e in es)
        + 256.0
    )
    assert digests == {"checksum": 0, "characteristics": 0}
    _check_reads(machine, app, res, ref, "entries")
    assert all(e.checksum is None for es in ref.values() for e in es)
    assert digests["checksum"] == 0


@pytest.mark.parametrize("checksums", [True, False])
def test_index_body_size_needs_no_digest(checksums, digests):
    app = _app(checksums)
    assert app.index_nbytes == float(sum(
        e.serialized_bytes for e in ref_entries(app, 0, 0.0)
    ))
    assert digests == {"checksum": 0, "characteristics": 0}
    assert app.index_nbytes == float(sum(
        e.serialized_bytes for e in app.index_entries(0, 0.0)
    ))


# -- the write log and the writer timings ------------------------------------
@pytest.mark.parametrize("name", sorted(TRANSPORTS))
def test_columns_read_back_as_records(name):
    machine, app, res = _run(name)
    for path in res.files:
        f = machine.fs.lookup(path)
        records = list(f.writes)
        assert all(type(r) is WriteRecord for r in records)
        assert len(records) == len(f.writes) > 0
        assert f.writes[-1] == records[-1]
        assert f.bytes_written == sum(r.nbytes for r in records)
        assert f.size == max(r.offset + r.nbytes for r in records)
        assert f.extents() == [(r.offset, r.nbytes) for r in records]
    timings = list(res.per_writer)
    assert all(type(w) is WriterTiming for w in timings)
    assert [w.rank for w in timings] == list(range(N_RANKS))
    assert res.per_writer == timings
    assert np.array_equal(res.per_writer_durations,
                          np.array([w.duration for w in timings]))
    assert np.array_equal(res.per_writer_bandwidths,
                          np.array([w.bandwidth for w in timings]))
