"""Tests for the BP read path (global index + scan fallback)."""

import pytest

from repro.apps import AppKernel, Variable
from repro.core.bp import BpReader
from repro.core.transports import AdaptiveTransport
from repro.errors import FileSystemError
from repro.machines import jaguar
from repro.units import MB


@pytest.fixture(scope="module")
def written():
    """One adaptive output set shared across the read tests."""
    app = AppKernel(
        "rt",
        [
            Variable("alpha", shape=(1000,), value_range=(0.0, 1.0)),
            Variable("beta", shape=(500,), value_range=(10.0, 20.0)),
        ],
    )
    machine = jaguar(n_osts=4).build(n_ranks=12, seed=0)
    res = AdaptiveTransport().run(machine, app, output_name="rt")
    return machine, app, res


class TestIndexedReads:
    def test_locate_block(self, written):
        machine, app, res = written
        reader = BpReader(machine.fs, res.index)
        hits = [h for h in reader.locate("alpha") if h[1].writer == 5]
        assert len(hits) == 1
        path, entry = hits[0]
        assert entry.writer == 5
        assert entry.nbytes == pytest.approx(8000.0)

    def test_locate_missing(self, written):
        machine, _, res = written
        reader = BpReader(machine.fs, res.index)
        with pytest.raises(KeyError):
            reader.locate("gamma")
        with pytest.raises(KeyError):
            next(reader.read_block(node=0, var="alpha", writer=999))

    def test_read_block_simulates_time(self, written):
        machine, _, res = written
        reader = BpReader(machine.fs, res.index)
        proc = machine.env.process(
            reader.read_block(node=0, var="beta", writer=3)
        )
        entry, seconds = machine.env.run(until=proc)
        assert entry.nbytes == pytest.approx(4000.0)
        assert seconds > 0

    def test_read_variable_all_blocks(self, written):
        machine, app, res = written
        reader = BpReader(machine.fs, res.index)
        proc = machine.env.process(reader.read_variable(node=1, var="alpha"))
        nbytes, seconds = machine.env.run(until=proc)
        assert nbytes == pytest.approx(12 * 8000.0)
        assert seconds > 0

    def test_value_range_query(self, written):
        machine, _, res = written
        reader = BpReader(machine.fs, res.index)
        everything = reader.query_value_range("beta", -1e9, 1e9)
        assert len(everything) == 12
        nothing = reader.query_value_range("beta", 100.0, 200.0)
        assert len(nothing) == 0


class TestScanFallback:
    def test_scan_mode_finds_blocks(self, written):
        machine, _, res = written
        data_files = [p for p in res.files if "index" not in p]
        reader = BpReader(machine.fs, index=None, files=data_files)
        hits = [h for h in reader.locate("alpha") if h[1].writer == 5]
        assert len(hits) == 1
        # Must agree with the indexed path.
        indexed = [h for h in BpReader(machine.fs, res.index).locate("alpha")
                   if h[1].writer == 5]
        assert hits[0][1] == indexed[0][1]

    def test_scan_mode_rejects_range_query(self, written):
        machine, _, res = written
        reader = BpReader(machine.fs, index=None, files=res.files)
        with pytest.raises(FileSystemError):
            reader.query_value_range("alpha", 0, 1)

    def test_requires_index_or_files(self, written):
        machine, _, _ = written
        with pytest.raises(ValueError):
            BpReader(machine.fs)


class TestCorruptIndex:
    def test_duplicate_block_entries_rejected(self, written):
        """A (var, writer) with multiple index blocks is a corrupt
        index: read_block must refuse rather than pick one."""
        from repro.core.index import GlobalIndex, IndexEntry

        machine, _, res = written
        dup = GlobalIndex()
        entry = IndexEntry(var="alpha", writer=5, offset=0.0, nbytes=8000.0)
        dup.add_file(res.files[0], [entry])
        dup.add_file(res.files[1], [entry])
        reader = BpReader(machine.fs, dup)
        gen = reader.read_block(node=0, var="alpha", writer=5)
        with pytest.raises(FileSystemError, match="corrupt index"):
            next(gen)
