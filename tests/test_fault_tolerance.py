"""Transport behaviour under injected faults.

The adaptive transport must *recover*: relocate sub-files off dead or
hung targets, re-drive the affected writers, and adopt a crashed
sub-coordinator's group.  The static transports must *fail fast with
defined semantics*: record the failed writers, terminate within the
policy timeouts, and raise :class:`~repro.errors.TransportError`
carrying durable/lost byte accounting plus the partial result.
"""

import functools

import pytest

from repro.apps import AppKernel, Variable
from repro.core.transports import (
    AdaptiveTransport,
    MpiIoTransport,
    PosixTransport,
    SplitFilesTransport,
    StaggerTransport,
)
from repro.errors import TransportError
from repro.faults import FaultEvent, FaultPlan
from repro.machines import jaguar
from repro.units import MB
from tests.faultplans import two_ost_failure_plan

N_RANKS = 64
N_OSTS = 16
CAP = 4
MB_PER_PROC = 16.0


def spec():
    return jaguar(n_osts=N_OSTS).with_overrides(max_stripe_count=CAP)


def app():
    return AppKernel(
        "ft", [Variable("v", shape=(int(MB_PER_PROC * MB / 8),))]
    )


def _stagger_unindexed():
    t = StaggerTransport()
    t.build_index = False
    return t


TOTAL_BYTES = MB_PER_PROC * MB * N_RANKS
PER_PROC_BYTES = MB_PER_PROC * MB


@functools.lru_cache(maxsize=None)
def baseline_write_time(transport_name: str) -> float:
    """Fault-free write time, used to aim faults mid-write."""
    transport = {
        "adaptive": AdaptiveTransport,
        "mpiio": lambda: MpiIoTransport(build_index=False),
        "posix": lambda: PosixTransport(build_index=False),
        "splitfiles": lambda: SplitFilesTransport(build_index=False),
        "stagger": _stagger_unindexed,
    }[transport_name]()
    m = spec().build(n_ranks=N_RANKS, seed=0)
    return transport.run(m, app(), output_name="ft").write_time


def run_adaptive(plan, seed=0):
    m = spec().build(n_ranks=N_RANKS, seed=seed, faults=plan)
    res = AdaptiveTransport().run(m, app(), output_name="ft")
    return m, res


class TestAdaptiveRecovery:
    def test_two_ost_failstop_fully_durable(self):
        """The ISSUE acceptance scenario: 2 of 16 targets fail-stop
        mid-write; the run ends clean with 100% of bytes durable."""
        at = 0.4 * baseline_write_time("adaptive")
        plan = two_ost_failure_plan(osts=(0, 1), at=at).with_policy(
            run_timeout=120.0
        )
        m, res = run_adaptive(plan)
        assert len(res.per_writer) == N_RANKS
        assert res.extra["sc_relocations"] >= 1
        assert res.extra["bytes_durable"] == pytest.approx(TOTAL_BYTES)
        assert res.extra["bytes_lost"] == pytest.approx(0.0)
        assert res.extra["n_injected"] == 2.0
        # Relocated groups write epoch-suffixed incarnation files.
        assert any(".e" in path for path in res.files)
        # Every result file really exists and flushed cleanly.
        for path in res.files:
            assert m.fs.lookup(path) is not None

    def test_hung_ost_retries_then_completes(self):
        """A hung target never errors — writers must time the write
        out, back off, and eventually force a relocation."""
        wt = baseline_write_time("adaptive")
        plan = FaultPlan(
            events=(
                FaultEvent(time=0.4 * wt, kind="ost_hang", target=3),
            )
        ).with_policy(
            write_timeout=max(2.0 * wt, 1e-2),
            max_retries=2,
            backoff_base=0.01,
            backoff_cap=0.05,
            run_timeout=120.0,
        )
        m, res = run_adaptive(plan)
        assert len(res.per_writer) == N_RANKS
        assert res.extra["fault_retries"] > 0
        assert res.extra["bytes_durable"] == pytest.approx(TOTAL_BYTES)
        assert m.env.now < 120.0  # finished, not reaped by the backstop

    def test_sc_crash_adopted_rest_durable(self):
        """Killing a sub-coordinator rank (4 = SC of group 1) loses
        only that rank's own data: the coordinator adopts the group,
        the surviving members re-land, and the error accounts for
        exactly one writer's bytes."""
        wt = baseline_write_time("adaptive")
        plan = FaultPlan(
            events=(
                FaultEvent(time=0.4 * wt, kind="crash_rank", target=4),
            )
        ).with_policy(
            heartbeat_interval=0.1, sc_timeout=0.5, run_timeout=120.0
        )
        with pytest.raises(TransportError) as excinfo:
            run_adaptive(plan)
        exc = excinfo.value
        assert exc.partial is not None
        assert exc.partial.extra["sc_adoptions"] == 1.0
        assert exc.bytes_durable == pytest.approx(
            TOTAL_BYTES - PER_PROC_BYTES
        )
        assert exc.bytes_lost == pytest.approx(PER_PROC_BYTES)

    def test_sc_crash_before_first_step_is_defined(self):
        """A sub-coordinator killed at t=0, before its process first
        runs, never creates its sub-file.  The run must end with an
        adoption or a TransportError whose byte accounting covers every
        byte -- never with a kernel error from the killed process."""
        plan = FaultPlan(
            events=(FaultEvent(time=0.0, kind="crash_rank", target=4),)
        ).with_policy(heartbeat_interval=0.1, sc_timeout=0.5,
                      run_timeout=5.0)
        try:
            m, res = run_adaptive(plan)
        except TransportError as exc:
            assert exc.partial is not None
            assert exc.bytes_durable + exc.bytes_lost == pytest.approx(
                TOTAL_BYTES
            )
            assert exc.bytes_lost >= PER_PROC_BYTES
        else:
            assert res.extra["sc_adoptions"] >= 1.0
            assert res.extra["bytes_durable"] + res.extra[
                "bytes_lost"
            ] == pytest.approx(TOTAL_BYTES)

    def test_same_seed_same_plan_is_deterministic(self):
        at = 0.4 * baseline_write_time("adaptive")
        plan = two_ost_failure_plan(osts=(0, 1), at=at).with_policy(
            run_timeout=120.0
        )
        _, a = run_adaptive(plan, seed=3)
        _, b = run_adaptive(plan, seed=3)
        assert a.per_writer == b.per_writer
        assert a.extra == b.extra
        assert a.files == b.files
        assert a.reported_time == b.reported_time


STATIC_TRANSPORTS = {
    "mpiio": lambda: MpiIoTransport(build_index=False),
    "posix": lambda: PosixTransport(build_index=False),
    "splitfiles": lambda: SplitFilesTransport(build_index=False),
    "stagger": _stagger_unindexed,
}


class TestStaticFailFast:
    @pytest.mark.parametrize("name", sorted(STATIC_TRANSPORTS))
    def test_failstop_raises_with_accounting(self, name):
        """No recovery path: a mid-write fail-stop must surface as a
        TransportError whose durable + lost bytes cover the output."""
        at = 0.4 * baseline_write_time(name)
        plan = two_ost_failure_plan(osts=(0, 1), at=at).with_policy(
            run_timeout=120.0
        )
        m = spec().build(n_ranks=N_RANKS, seed=0, faults=plan)
        with pytest.raises(TransportError) as excinfo:
            STATIC_TRANSPORTS[name]().run(m, app(), output_name="ft")
        exc = excinfo.value
        assert exc.bytes_durable + exc.bytes_lost == pytest.approx(
            TOTAL_BYTES
        )
        assert exc.bytes_durable < TOTAL_BYTES
        assert exc.partial is not None
        assert exc.partial.extra["n_injected"] == 2.0
        assert m.env.now < 120.0  # fail-fast, not backstop-reaped

    def test_mpiio_hung_ost_terminates_at_write_timeout(self):
        """A hung target must not hang the run: writers give up after
        the per-attempt timeout and the run fails with accounting."""
        wt = baseline_write_time("mpiio")
        timeout = max(2.0 * wt, 1e-2)
        plan = FaultPlan(
            events=(
                FaultEvent(time=0.4 * wt, kind="ost_hang", target=3),
            )
        ).with_policy(write_timeout=timeout, run_timeout=120.0)
        m = spec().build(n_ranks=N_RANKS, seed=0, faults=plan)
        with pytest.raises(TransportError) as excinfo:
            MpiIoTransport(build_index=False).run(
                m, app(), output_name="ft"
            )
        exc = excinfo.value
        assert exc.bytes_durable < TOTAL_BYTES
        # Terminated by the per-write timeout, far before the backstop.
        assert m.env.now < 120.0

    def test_dead_shared_file_listed_but_not_indexed(self):
        """Split file 0 (ranks 0-15) stripes over OSTs 0-3; all four
        fail before its first write lands.  The partial result still
        lists the created file, the global index leaves it out, and
        exactly its bytes are lost."""
        plan = FaultPlan(events=tuple(
            FaultEvent(time=1e-6, kind="ost_fail", target=o)
            for o in range(4)
        )).with_policy(run_timeout=120.0)
        m = spec().build(n_ranks=N_RANKS, seed=0, faults=plan)
        with pytest.raises(TransportError) as excinfo:
            SplitFilesTransport().run(m, app(), output_name="o")
        exc = excinfo.value
        partial = exc.partial
        assert "/o.part0.bp" in partial.files
        assert "/o.part0.bp" not in partial.index.files
        assert len(partial.index.files) == len(partial.files) - 1
        assert exc.bytes_lost == pytest.approx(16 * PER_PROC_BYTES)
        assert {w.rank for w in partial.per_writer} == set(range(16, 64))

    @pytest.mark.parametrize("name", sorted(STATIC_TRANSPORTS))
    def test_static_deterministic_under_faults(self, name):
        at = 0.4 * baseline_write_time(name)
        plan = two_ost_failure_plan(osts=(0, 1), at=at)

        def one():
            m = spec().build(n_ranks=N_RANKS, seed=5, faults=plan)
            with pytest.raises(TransportError) as excinfo:
                STATIC_TRANSPORTS[name]().run(m, app(), output_name="ft")
            return excinfo.value

        a, b = one(), one()
        assert a.bytes_durable == b.bytes_durable
        assert a.partial.per_writer == b.partial.per_writer


class TestStaggerLanes:
    """A stagger lane plays its whole group in rank order, so the lane
    rule shows: the first failed write, or a crash of any member, ends
    the group and its later members are accounted as lost."""

    def healthy(self):
        m = spec().build(n_ranks=N_RANKS, seed=0)
        res = _stagger_unindexed().run(
            m, app(), output_name="ft"
        )
        return {w.rank: w for w in res.per_writer}

    def run(self, plan):
        m = spec().build(n_ranks=N_RANKS, seed=0, faults=plan)
        with pytest.raises(TransportError) as excinfo:
            _stagger_unindexed().run(
                m, app(), output_name="ft"
            )
        exc = excinfo.value
        missing = set(range(N_RANKS)) - {
            w.rank for w in exc.partial.per_writer
        }
        return exc, missing

    def test_crash_loses_rest_of_group(self):
        # Rank 4 leads group 1 (ranks 4-7); kill it while it writes.
        w = self.healthy()[4]
        plan = FaultPlan(
            events=(FaultEvent(time=0.5 * (w.start + w.end),
                               kind="crash_rank", target=4),)
        ).with_policy(run_timeout=120.0)
        exc, missing = self.run(plan)
        assert missing == {4, 5, 6, 7}
        assert exc.bytes_durable == pytest.approx(
            TOTAL_BYTES - 4 * PER_PROC_BYTES
        )
        assert "1 rank(s) crashed" in str(exc)

    def test_failstop_stops_lane_at_first_failed_write(self):
        # Groups 0 and 1 sit on OSTs 0 and 1; fail both while each
        # group's second member writes.
        w = self.healthy()[1]
        plan = two_ost_failure_plan(
            osts=(0, 1), at=0.5 * (w.start + w.end)
        ).with_policy(run_timeout=120.0)
        exc, missing = self.run(plan)
        assert missing == {1, 2, 3, 5, 6, 7}
        assert "2 write failure(s)" in str(exc)
        assert exc.bytes_durable + exc.bytes_lost == pytest.approx(
            TOTAL_BYTES
        )


class TestCreatorCrash:
    """A rank that creates its own file and dies at t=0, before the
    create barrier fills: the file is never created, its members are
    lost, and the other lanes write as normal instead of stalling the
    barrier until the run-timeout backstop."""

    @pytest.mark.parametrize("name, target, lost", [
        ("posix", 5, {5}),
        ("stagger", 4, {4, 5, 6, 7}),  # rank 4 creates group 1's file
        ("stagger", 5, {5, 6, 7}),  # rank 4 writes; the lane stops at 5
    ])
    def test_crash_at_t0_loses_only_its_file(self, name, target, lost):
        plan = FaultPlan(
            events=(FaultEvent(time=0.0, kind="crash_rank", target=target),)
        ).with_policy(run_timeout=120.0)
        m = spec().build(n_ranks=N_RANKS, seed=2, faults=plan)
        with pytest.raises(TransportError) as excinfo:
            STATIC_TRANSPORTS[name]().run(m, app(), output_name="ft")
        exc = excinfo.value
        assert m.env.now < 12.0  # ended by the lanes, not the backstop
        assert "run timeout" not in str(exc)
        missing = set(range(N_RANKS)) - {
            w.rank for w in exc.partial.per_writer
        }
        assert missing == lost
        assert exc.bytes_lost == pytest.approx(len(lost) * PER_PROC_BYTES)

