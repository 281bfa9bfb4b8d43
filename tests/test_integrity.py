"""End-to-end data-integrity tests.

Per-block checksums flow writer -> index -> stored block; corruption
faults mutate stored state; the scrub classifies every block; the
adaptive write-verify-rewrite loop repairs in-run; fsck audits and
repairs after the fact.  Detection must be total (no undetected
corruption with checksums on, no false positives ever) — and honest
(checksum-free output sets report unverified, not valid).
"""

import pytest

from repro.apps import AppKernel, Variable
from repro.core.bp import BpReader
from repro.core.index import IndexEntry, block_checksum
from repro.core.integrity import (
    BLOCK_CORRUPT,
    BLOCK_MISSING,
    BLOCK_TORN,
    BLOCK_UNINDEXED,
    BLOCK_UNVERIFIED,
    BLOCK_VALID,
    classify_block,
    detection_stats,
    rebuild_global_index,
    verify_stored,
)
from repro.core.transports import (
    AdaptiveTransport,
    MpiIoTransport,
    SplitFilesTransport,
)
from repro.errors import (
    FaultPlanError,
    IntegrityError,
    TransportError,
)
from repro.faults import CORRUPTION_KINDS, FaultEvent, FaultPlan
from repro.machines import jaguar
from repro.units import MB


def _app(mb=4.0, checksums=True):
    return AppKernel(
        "it",
        [Variable("v", shape=(int(mb * MB / 8),))],
        checksums=checksums,
    )


def _build(seed=0, n_ranks=16, n_osts=8, cap=4, plan=None):
    return jaguar(n_osts=n_osts).with_overrides(
        max_stripe_count=cap
    ).build(n_ranks=n_ranks, seed=seed, faults=plan)


def _adaptive_run(plan=None, seed=0, checksums=True, n_ranks=16):
    machine = _build(seed=seed, n_ranks=n_ranks, plan=plan)
    res = AdaptiveTransport().run(machine, _app(checksums=checksums),
                                  output_name="it")
    return machine, res


def _scrub(machine, res, files=None):
    reader = BpReader(machine.fs, index=res.index,
                      files=files or res.files)
    return reader.scrub(), reader


@pytest.fixture()
def clean():
    """A fresh fault-free checksummed adaptive output set."""
    return _adaptive_run()


@pytest.fixture(scope="module")
def baseline():
    """Fault-free adaptive phase times, to place corruption events."""
    _, res = _adaptive_run()
    return res


def _corruption_plan(baseline, **kinds):
    # Just after the write phase: at this scale (2 writers per group)
    # a mid-phase instant can precede the first block registration,
    # and a corruption event with nothing stored yet is a no-op.
    at = (baseline.open_time + baseline.write_time
          + max(0.25 * baseline.flush_time, 1e-3))
    events = tuple(
        FaultEvent(time=at, kind=kind, target=i, factor=factor)
        for i, (kind, factor) in enumerate(kinds.items())
    )
    return FaultPlan(events=events)


class TestBlockChecksum:
    def test_deterministic(self):
        assert block_checksum("v", 3, 8000.0) == block_checksum(
            "v", 3, 8000.0
        )

    def test_sensitive_to_every_input(self):
        base = block_checksum("v", 3, 8000.0)
        assert block_checksum("w", 3, 8000.0) != base
        assert block_checksum("v", 4, 8000.0) != base
        assert block_checksum("v", 3, 8001.0) != base

    def test_index_entry_pays_for_checksum_bytes(self):
        plain = IndexEntry(var="v", writer=0, offset=0.0, nbytes=8.0)
        summed = IndexEntry(var="v", writer=0, offset=0.0, nbytes=8.0,
                            checksum=block_checksum("v", 0, 8.0))
        assert summed.serialized_bytes == plain.serialized_bytes + 8.0


class TestClassification:
    def _one(self, machine, res):
        """(file, entry, stored block) for one indexed block."""
        path, entries = next(iter(res.index.entries_by_file().items()))
        entry = entries[0]
        f = machine.fs.lookup(path)
        return f, entry, f.block_at(entry.offset, entry.nbytes)

    def test_clean_block_is_valid(self, clean):
        f, entry, blk = self._one(*clean)
        assert blk is not None
        assert classify_block(f, entry) == BLOCK_VALID

    def test_checksum_mismatch_is_corrupt(self, clean):
        f, entry, blk = self._one(*clean)
        blk.checksum ^= 1
        assert classify_block(f, entry) == BLOCK_CORRUPT

    def test_torn_outranks_checksum(self, clean):
        # A tear is visible from length metadata alone; report it as
        # torn even though the checksum would also mismatch.
        f, entry, blk = self._one(*clean)
        blk.valid_bytes = 0.5 * blk.nbytes
        blk.checksum ^= 1
        assert classify_block(f, entry) == BLOCK_TORN

    def test_either_checksum_absent_is_unverified(self, clean):
        f, entry, blk = self._one(*clean)
        blk.checksum = None
        assert classify_block(f, entry) == BLOCK_UNVERIFIED

    def test_deleted_block_is_missing(self, clean):
        f, entry, _ = self._one(*clean)
        del f.blocks[(entry.offset, entry.nbytes)]
        assert classify_block(f, entry) == BLOCK_MISSING

    def test_missing_file_is_missing(self, clean):
        _, entry, _ = self._one(*clean)
        assert classify_block(None, entry) == BLOCK_MISSING

    def test_verify_stored_matches_classification(self, clean):
        f, entry, blk = self._one(*clean)
        triple = [(entry.offset, entry.nbytes, entry.checksum)]
        assert verify_stored(f, triple)
        blk.checksum ^= 1
        assert not verify_stored(f, triple)


class TestCorruptionFaults:
    def test_bitflip_detected_by_scrub(self, baseline):
        plan = _corruption_plan(baseline, block_bitflip=2)
        machine, res = _adaptive_run(plan=plan)
        report, _ = _scrub(machine, res)
        assert report.counts[BLOCK_CORRUPT] == 2
        assert machine.faults.blocks_bitflipped == 2
        det = detection_stats(report, machine.fs, res.index)
        assert det["truth"] == 2
        assert det["detected"] == 2
        assert det["undetected"] == 0
        assert det["false_positives"] == 0

    def test_torn_write_classified_torn(self, baseline):
        plan = _corruption_plan(baseline, torn_write=0.5)
        machine, res = _adaptive_run(plan=plan)
        report, _ = _scrub(machine, res)
        assert report.counts[BLOCK_TORN] == 1
        assert machine.faults.blocks_torn == 1

    def test_stale_index_classified_missing(self, baseline):
        plan = _corruption_plan(baseline, stale_index=1)
        machine, res = _adaptive_run(plan=plan)
        report, _ = _scrub(machine, res)
        assert report.counts[BLOCK_MISSING] == 1
        assert machine.faults.blocks_orphaned == 1
        assert machine.faults.corruption_ledger[0]["kind"] == "stale_index"

    def test_corruption_on_failed_target_is_noop(self, baseline):
        # Fail-stop at t, bitflip the same target later: the data is
        # already gone, there is nothing left to rot.
        at = max(0.5 * baseline.write_time, 1e-3)
        plan = FaultPlan(events=(
            FaultEvent(time=at, kind="ost_fail", target=0),
            FaultEvent(time=2.0 * at + 1e-3, kind="block_bitflip",
                       target=0, factor=4),
        )).with_policy(run_timeout=600.0)
        machine, res = _adaptive_run(plan=plan)
        assert machine.faults.blocks_bitflipped == 0
        report, _ = _scrub(machine, res)
        assert report.ok

    def test_silent_corruption_is_seed_deterministic(self):
        plan = FaultPlan(silent_error_rate=0.05)
        ledgers = []
        for _ in range(2):
            machine, _ = _adaptive_run(plan=plan)
            ledgers.append(machine.faults.corruption_ledger)
        assert ledgers[0] == ledgers[1]
        assert len(ledgers[0]) > 0

    def test_checksum_free_corruption_goes_undetected(self, baseline):
        # The honest exposure model: without checksums the scrub can
        # only say "unverified", and the detection stats must admit
        # the corruption went unseen.
        plan = _corruption_plan(baseline, block_bitflip=2)
        machine, res = _adaptive_run(plan=plan, checksums=False)
        report, _ = _scrub(machine, res)
        assert report.counts[BLOCK_UNVERIFIED] == report.n_blocks
        det = detection_stats(report, machine.fs, res.index)
        assert det["truth"] == 2
        assert det["detected"] == 0
        assert det["undetected"] == 2


class TestPlanValidationCorruption:
    def test_corruption_kinds_are_fault_kinds(self):
        from repro.faults.plan import FAULT_KINDS

        assert set(CORRUPTION_KINDS) <= set(FAULT_KINDS)

    def test_corruption_does_not_revert(self):
        with pytest.raises(FaultPlanError):
            FaultEvent(time=1.0, kind="block_bitflip", target=0,
                       factor=1, duration=5.0)

    def test_torn_fraction_range(self):
        with pytest.raises(FaultPlanError):
            FaultEvent(time=1.0, kind="torn_write", target=0, factor=1.5)
        FaultEvent(time=1.0, kind="torn_write", target=0, factor=1.0)

    def test_bitflip_count_at_least_one(self):
        with pytest.raises(FaultPlanError):
            FaultEvent(time=1.0, kind="block_bitflip", target=0,
                       factor=0.0)

    def test_silent_rate_range(self):
        with pytest.raises(FaultPlanError):
            FaultPlan(silent_error_rate=1.0)
        plan = FaultPlan(silent_error_rate=0.25)
        assert FaultPlan.from_dict(plan.to_dict()) == plan


class TestVerifyRewrite:
    def test_silent_corruption_repaired_in_run(self):
        plan = FaultPlan(silent_error_rate=0.2).with_policy(
            read_back_verify=True, run_timeout=600.0
        )
        machine, res = _adaptive_run(plan=plan)
        assert res.extra["verify_failures"] > 0
        assert res.extra["bytes_corrupt"] == 0.0
        report, _ = _scrub(machine, res)
        assert report.ok
        det = detection_stats(report, machine.fs, res.index)
        assert det["truth"] == 0  # every corruption was rewritten

    def test_without_verify_corruption_persists(self):
        plan = FaultPlan(silent_error_rate=0.2).with_policy(
            run_timeout=600.0
        )
        machine, res = _adaptive_run(plan=plan)
        assert res.extra["verify_failures"] == 0
        assert res.extra["bytes_corrupt"] > 0.0
        report, _ = _scrub(machine, res)
        assert not report.ok
        det = detection_stats(report, machine.fs, res.index)
        assert det["truth"] > 0
        assert det["undetected"] == 0


class TestStaticTransports:
    def _static_plan(self, res, factor=1):
        # Static transports register blocks only at write completion:
        # corrupt just after the write phase, during the flush.
        at = (res.open_time + res.write_time
              + max(0.25 * res.flush_time, 1e-3))
        return FaultPlan(events=(
            FaultEvent(time=at, kind="block_bitflip", target=0,
                       factor=factor),
        ))

    def test_mpiio_flags_corrupt_bytes(self):
        app = _app()
        base = MpiIoTransport().run(_build(), app, output_name="it")
        plan = self._static_plan(base)
        machine = _build(plan=plan)
        with pytest.raises(TransportError) as ei:
            MpiIoTransport().run(machine, app, output_name="it")
        assert ei.value.bytes_corrupt > 0.0
        res = ei.value.partial
        report, _ = _scrub(machine, res)
        det = detection_stats(report, machine.fs, res.index)
        assert det["detected"] == det["truth"] > 0
        assert det["undetected"] == det["false_positives"] == 0

    def test_splitfiles_rebuilt_index_scrubs_identically(self):
        app = _app()
        machine = _build()
        res = SplitFilesTransport().run(machine, app, output_name="it")
        rebuilt, uncovered = rebuild_global_index(machine.fs, res.files)
        assert uncovered == []
        original, _ = _scrub(machine, res)
        from_rebuilt = BpReader(
            machine.fs, index=rebuilt, files=res.files
        ).scrub()
        assert from_rebuilt == original
        assert from_rebuilt.ok


class TestScrub:
    def test_clean_scrub_is_all_valid(self, clean):
        machine, res = clean
        report, _ = _scrub(machine, res)
        assert report.ok
        assert report.counts[BLOCK_VALID] == report.n_blocks
        assert report.bytes_bad == 0.0

    def test_unindexed_block_flagged(self, clean):
        machine, res = clean
        path = res.index.entries_by_file().popitem()[0]
        f = machine.fs.lookup(path)
        f.store_block(offset=1e9, nbytes=64.0, checksum=None, seq=1 << 30)
        report, _ = _scrub(machine, res)
        assert report.counts[BLOCK_UNINDEXED] == 1
        assert not report.ok

    def test_scrub_sim_pays_read_time(self, clean):
        machine, res = clean
        reader = BpReader(machine.fs, index=res.index, files=res.files)
        proc = machine.env.process(reader.scrub_sim(0), name="scrub")
        report, seconds = machine.env.run(until=proc)
        assert report.ok
        assert seconds > 0.0

    def test_verifying_reader_raises_on_corrupt_block(self, clean):
        machine, res = clean
        path, entries = next(iter(res.index.entries_by_file().items()))
        entry = entries[0]
        machine.fs.lookup(path).block_at(
            entry.offset, entry.nbytes
        ).checksum ^= 1
        reader = BpReader(machine.fs, index=res.index, verify=True)
        proc = machine.env.process(
            reader.read_block(node=0, var=entry.var, writer=entry.writer)
        )
        from repro.sim.engine import SimulationError

        with pytest.raises(SimulationError) as ei:
            machine.env.run(until=proc)
        assert isinstance(ei.value.cause, IntegrityError)
        assert ei.value.cause.status == BLOCK_CORRUPT

    def test_non_verifying_reader_reads_corrupt_block(self, clean):
        machine, res = clean
        path, entries = next(iter(res.index.entries_by_file().items()))
        entry = entries[0]
        machine.fs.lookup(path).block_at(
            entry.offset, entry.nbytes
        ).checksum ^= 1
        reader = BpReader(machine.fs, index=res.index)
        proc = machine.env.process(
            reader.read_block(node=0, var=entry.var, writer=entry.writer)
        )
        _, seconds = machine.env.run(until=proc)
        assert seconds > 0.0


class TestFsckCli:
    ARGS = ["--n-ranks", "16", "--n-osts", "8", "--mb", "4"]

    def test_clean_strict_passes(self, capsys):
        from repro.tools.fsck import main

        assert main(self.ARGS + ["--strict"]) == 0
        out = capsys.readouterr().out
        assert "strict checks passed" in out

    def test_corrupt_repair_readback(self, tmp_path, capsys):
        from repro.tools.fsck import main

        report = tmp_path / "fsck.json"
        rc = main(self.ARGS + [
            "--bitflip", "1", "--torn", "1", "--stale", "1",
            "--repair", "--strict", "--json", str(report),
        ])
        assert rc == 0
        import json

        out = json.loads(report.read_text())
        assert out["detection"]["undetected"] == 0
        assert out["detection"]["false_positives"] == 0
        assert out["detection"]["detected"] == out["detection"]["truth"] > 0
        assert out["repair"]["unrepairable"] == 0
        assert out["rescrub"]["ok"]
        assert out["read_back"]["errors"] == []

    def test_static_transport_with_index_rebuild(self):
        from repro.tools.fsck import main

        rc = main(self.ARGS + [
            "--transport", "splitfiles", "--bitflip", "1",
            "--rebuild-index", "--repair", "--strict",
        ])
        assert rc == 0

    def test_stagger_failstop_reported_like_mpiio(self, tmp_path):
        """Stagger arms its own injector: a fail-stop mid-write is a
        reported, incomplete run, exactly as for MPI-IO."""
        import json

        from repro.tools.fsck import main

        plan = tmp_path / "plan.json"
        FaultPlan(events=(
            FaultEvent(time=0.01, kind="ost_fail", target=0),
        )).save_json(str(plan))
        for transport in ("stagger", "mpiio"):
            report = tmp_path / f"{transport}.json"
            rc = main(self.ARGS + [
                "--transport", transport, "--faults", str(plan),
                "--json", str(report),
            ])
            assert rc == 0
            out = json.loads(report.read_text())
            assert out["completed"] is False
            assert out["transport_error"].startswith(
                f"{transport} output did not complete cleanly: "
            )
            assert "write failure(s)" in out["transport_error"]
            assert out["injected"]["n_injected"] == 1.0
