"""The batched adaptive protocol against its pinned per-rank trajectories.

A healthy adaptive output runs one cohort process per sub-coordinator
instead of 8192 per-rank writer processes, coalesces same-instant
coordinator traffic into ``CoordBatch`` envelopes, and drives each
group's data movement as one aggregate fabric flow.  None of that may
change *simulated physics*.  The cells here (seeds 0-2, clean and with
slow OSTs 0 and 1, plus a two-lane cell) were pinned in
``tests/goldens/adaptive_equivalence.json`` from the per-rank protocol
of one process and one message per writer, while the cohort was
asserted to agree; that protocol has since been deleted.  Each cell
must still match float for float on

* every writer's ``(rank, start, end, nbytes, target_group, adaptive)``,
* the headline scalars ``reported_time``, ``aggregate_bandwidth`` and
  ``n_adaptive_writes``, and the output's files,
* the effective steering sequence: each group's plan-plus-steals
  ``WRITE_START`` instant stream, in order, and the announced final
  offsets.

Message and event counts are simulation cost, not physics; the
adaptive goldens (``tests/test_adaptive_goldens.py``) pin those.
Regenerate the fixture and diff it against a revision with
``python -m tests.golden``.

A fault plan selects the fault-hardened protocol instead; one test
here checks that a completed faulted run leaves no live
heartbeat/monitor wake-ups in the calendar.
"""

import numpy as np
import pytest

from repro.apps import AppKernel, Variable
from repro.core.transports import AdaptiveTransport
from repro.faults import FaultEvent, FaultPlan
from repro.machines import jaguar
from repro.session import instrumented
from repro.telemetry import MetricsRegistry
from repro.trace import Tracer
from repro.units import MB
from tests.golden import canonical, register

SEEDS = (0, 1, 2)
#: The float-exact cells: cell id -> (slow OSTs, seed, transport options).
CELLS = {
    **{f"clean/{s}": ((), s, {}) for s in SEEDS},
    **{f"slow/{s}": ((0, 1), s, {}) for s in SEEDS},
    "wpt2": ((0,), 0, {"writers_per_target": 2}),
}
#: Fixture keys read from the trace.
STEERING = ("write_start", "sc_complete")


def app(mb=2.0, n_vars=2):
    per_var = int(mb * MB / 8 / n_vars)
    return AppKernel(
        "eq",
        [Variable(f"v{i}", shape=(per_var,)) for i in range(n_vars)],
    )


def run_one(n_ranks=48, n_osts=6, slow_osts=(), seed=0,
            tracer=None, metrics=None, faults=None, **opts):
    with instrumented(registry=metrics):
        m = jaguar(n_osts=n_osts).build(
            n_ranks=n_ranks, seed=seed, faults=faults
        )
    if tracer is not None:
        m.env.set_tracer(tracer)
    if slow_osts:
        m.pool.set_load_multiplier(0.05, osts=np.array(list(slow_osts)))
    res = AdaptiveTransport(**opts).run(m, app(), output_name="eq")
    return m, res


def writer_tuples(res):
    return sorted(
        (w.rank, w.start, w.end, w.nbytes, w.target_group, w.adaptive)
        for w in res.per_writer
    )


def effective_steering(tracer):
    """Per-SC ``WRITE_START`` instant streams: the group's announced
    plan followed by every steal it absorbed, in order, with writer /
    target / offset payloads.  This is the steering sequence that
    *determines data placement*.

    Deliberately excluded: ``ADAPTIVE_WRITE_START`` offers and
    ``WRITERS_BUSY`` declines.  Coalescing same-instant coordinator
    traffic into ``CoordBatch`` envelopes can change the interleaving
    of a burst at the coordinator, which may add or remove a *futile*
    offer (one declined busy in the same instant it was made) without
    any effect on who writes what where — the float-exact per-writer
    checks pin that.
    """
    streams = {}
    for ev in tracer.events:
        if ev.cat != "steer" or ev.name != "WRITE_START":
            continue
        streams.setdefault(ev.tid, []).append(
            tuple(sorted((ev.args or {}).items()))
        )
    return streams


def sc_completes(tracer):
    """Every group's announced final offset (order-free: same-instant
    completions may interleave in any order)."""
    return sorted(
        tuple(sorted((ev.args or {}).items()))
        for ev in tracer.events
        if ev.cat == "steer" and ev.name == "SC_COMPLETE"
    )


def result_doc(res) -> dict:
    return {
        "writers": writer_tuples(res),
        "reported_time": res.reported_time,
        "aggregate_bandwidth": res.aggregate_bandwidth,
        "n_adaptive_writes": res.n_adaptive_writes,
        "files": sorted(res.files),
    }


def pinned(cell_id, traced=True) -> dict:
    """One run of a pinned cell; untraced runs omit the steering."""
    slow_osts, seed, opts = CELLS[cell_id]
    tracer = Tracer() if traced else None
    _, res = run_one(slow_osts=slow_osts, seed=seed, tracer=tracer, **opts)
    doc = result_doc(res)
    if traced:
        doc["write_start"] = effective_steering(tracer)
        doc["sc_complete"] = sc_completes(tracer)
    return canonical(doc)


GOLDEN = register("adaptive_equivalence", sorted(CELLS), pinned)


def check(cell_id, traced) -> dict:
    """Run ``cell_id`` and assert it matches the fixture; return it."""
    expected = {k: v for k, v in GOLDEN.cells[cell_id].items()
                if traced or k not in STEERING}
    got = pinned(cell_id, traced)
    GOLDEN.check(cell_id, got, expected)
    return got


def test_fixture_covers_every_cell():
    assert sorted(GOLDEN.cells) == sorted(CELLS)


class TestCleanEquivalence:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_clean_cell_float_exact(self, seed):
        assert check(f"clean/{seed}", traced=False)["n_adaptive_writes"] == 0
        check(f"clean/{seed}", traced=True)


class TestSteeringEquivalence:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_interference_cell_float_exact(self, seed):
        """Slow OSTs force adaptive steering; every steered write's
        timing and target must match the pinned run bit-for-bit."""
        doc = check(f"slow/{seed}", traced=False)
        assert doc["n_adaptive_writes"] > 0  # steering exercised

    @pytest.mark.parametrize("seed", SEEDS)
    def test_steering_sequences_identical(self, seed):
        """Every consummated steering decision matches: each group's
        plan-plus-steals ``WRITE_START`` stream is identical in
        content and order, and the groups announce the same final
        offsets."""
        check(f"slow/{seed}", traced=True)

    def test_multi_lane_groups_equivalent(self):
        check("wpt2", traced=False)
        check("wpt2", traced=True)


class TestTelemetryBitIdentity:
    """Observation must not perturb: metrics and tracing attached to a
    run reproduce the bare run's floats exactly."""

    def test_metrics_on_off(self):
        _, bare = run_one(slow_osts=(0, 1))
        _, observed = run_one(slow_osts=(0, 1), metrics=MetricsRegistry())
        assert result_doc(bare) == result_doc(observed)

    def test_tracer_on_off(self):
        _, bare = run_one(slow_osts=(0, 1))
        _, traced = run_one(slow_osts=(0, 1), tracer=Tracer())
        assert result_doc(bare) == result_doc(traced)


def degrade_plan():
    # A mid-write brownout on one target: enough to exercise the
    # faulted path without relocation nondeterminism.
    return FaultPlan(
        events=(
            FaultEvent(time=0.005, kind="ost_brownout", target=1,
                       factor=0.3),
        )
    )


class TestFaultedPath:
    def test_no_live_wakeups_after_faulted_run(self):
        """A completed faulted run must cancel the heartbeat senders'
        and monitor's parked timeouts — a stale wakeup per group
        would otherwise linger in the calendar (O(groups) tombstones
        firing into dead closures)."""
        m, res = run_one(faults=degrade_plan())
        assert len(res.per_writer) == 48
        live = [
            entry[3] for entry in m.env._queue
            if not entry[3].cancelled and not entry[3].processed
        ]
        # Permissible O(1) survivors: the run-timeout backstop and the
        # writer-release goodbye grace (both one-shot ``any_of``
        # losers).  Nothing that scales with group count may remain —
        # uncancelled heartbeat/monitor park-timeouts would leave
        # n_groups + 1 >= 7 live wakeups here.
        assert len(live) <= 3

