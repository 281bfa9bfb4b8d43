"""Batched-cohort vs per-rank-reference equivalence of the adaptive protocol.

The batched protocol (``AdaptiveTransport(batched=True)``, the default)
replaces 8192 per-rank writer processes with one cohort process per
sub-coordinator, coalesces same-instant coordinator traffic into
``CoordBatch`` envelopes, and drives each group's data movement as one
aggregate fabric flow.  None of that is allowed to change *simulated
physics*: this suite runs every cell twice — batched and with
``batched=False`` (the per-rank reference implementation, kept alive
exactly for this purpose) — on identically-seeded machines and demands
**float-exact** agreement on

* every writer's ``(rank, start, end, nbytes, target_group, adaptive)``,
* the effective steering sequence (each group's plan-plus-steals
  ``WRITE_START`` instant stream, in order, and the announced final
  offsets), and
* the headline scalars: ``reported_time``, ``aggregate_bandwidth``,
  ``n_adaptive_writes``.

What *may* differ is simulation cost and futile control traffic: the
batched runs send fewer protocol messages (that is the point), and
coalescing same-instant bursts can add/remove an offer that is
declined busy within the instant it was made — so ``messages_sent``
is checked for direction, not equality, and busy-declines are not
part of the pinned steering stream.

A fault plan selects the fault-hardened mode of the same single
``launch`` whatever the ``batched`` flag says, so faulted equivalence
is structural — one test pins that, plus the guarantee that a
completed faulted run leaves no live heartbeat/monitor wake-ups in the
calendar.
"""

import numpy as np
import pytest

from repro.apps import AppKernel, Variable
from repro.core.transports import AdaptiveTransport
from repro.faults import FaultEvent, FaultPlan
from repro.machines import jaguar
from repro.telemetry import MetricsRegistry
from repro.trace import Tracer
from repro.units import MB

SEEDS = (0, 1, 2)


def app(mb=2.0, n_vars=2):
    per_var = int(mb * MB / 8 / n_vars)
    return AppKernel(
        "eq",
        [Variable(f"v{i}", shape=(per_var,)) for i in range(n_vars)],
    )


def run_one(batched, n_ranks=48, n_osts=6, slow_osts=(), seed=0,
            tracer=None, metrics=None, faults=None, **opts):
    m = jaguar(n_osts=n_osts).build(
        n_ranks=n_ranks, seed=seed, faults=faults, metrics=metrics
    )
    if tracer is not None:
        m.env.set_tracer(tracer)
    if slow_osts:
        m.pool.set_load_multiplier(0.05, osts=np.array(list(slow_osts)))
    res = AdaptiveTransport(batched=batched, **opts).run(
        m, app(), output_name="eq"
    )
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
    checks above pin that.
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
    completions may interleave differently across modes)."""
    return sorted(
        tuple(sorted((ev.args or {}).items()))
        for ev in tracer.events
        if ev.cat == "steer" and ev.name == "SC_COMPLETE"
    )


def assert_equivalent(res_b, res_r):
    assert writer_tuples(res_b) == writer_tuples(res_r)
    assert res_b.reported_time == res_r.reported_time
    assert res_b.aggregate_bandwidth == res_r.aggregate_bandwidth
    assert res_b.n_adaptive_writes == res_r.n_adaptive_writes
    assert sorted(res_b.files) == sorted(res_r.files)


class TestCleanEquivalence:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_clean_cell_float_exact(self, seed):
        _, res_b = run_one(True, seed=seed)
        _, res_r = run_one(False, seed=seed)
        assert res_b.n_adaptive_writes == 0
        assert_equivalent(res_b, res_r)

    def test_batching_actually_reduces_messages(self):
        _, res_b = run_one(True)
        _, res_r = run_one(False)
        assert res_b.messages_sent < res_r.messages_sent


class TestSteeringEquivalence:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_interference_cell_float_exact(self, seed):
        """Slow OSTs force adaptive steering; every steered write's
        timing and target must agree bit-for-bit across modes."""
        _, res_b = run_one(True, slow_osts=(0, 1), seed=seed)
        _, res_r = run_one(False, slow_osts=(0, 1), seed=seed)
        assert res_b.n_adaptive_writes > 0  # steering exercised
        assert_equivalent(res_b, res_r)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_steering_sequences_identical(self, seed):
        """Every consummated steering decision matches: each group's
        plan-plus-steals ``WRITE_START`` stream is identical in
        content and order, and the groups announce the same final
        offsets."""
        tr_b, tr_r = Tracer(), Tracer()
        _, res_b = run_one(True, slow_osts=(0, 1), seed=seed,
                           tracer=tr_b)
        _, res_r = run_one(False, slow_osts=(0, 1), seed=seed,
                           tracer=tr_r)
        assert res_b.n_adaptive_writes > 0
        assert effective_steering(tr_b) == effective_steering(tr_r)
        assert sc_completes(tr_b) == sc_completes(tr_r)

    def test_multi_lane_groups_equivalent(self):
        _, res_b = run_one(True, slow_osts=(0,), writers_per_target=2)
        _, res_r = run_one(False, slow_osts=(0,), writers_per_target=2)
        assert_equivalent(res_b, res_r)


class TestTelemetryBitIdentity:
    """Observation must not perturb: metrics and tracing attached to a
    batched run reproduce the bare run's floats exactly."""

    def test_metrics_on_off(self):
        _, bare = run_one(True, slow_osts=(0, 1))
        _, observed = run_one(True, slow_osts=(0, 1),
                              metrics=MetricsRegistry())
        assert_equivalent(bare, observed)

    def test_tracer_on_off(self):
        _, bare = run_one(True, slow_osts=(0, 1))
        _, traced = run_one(True, slow_osts=(0, 1), tracer=Tracer())
        assert_equivalent(bare, traced)


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
    def test_faulted_runs_identical_across_modes(self):
        """With a fault plan ``launch`` takes the fault-hardened mode
        for either ``batched`` value — the cohorts only cover
        fault-free runs — so the results are the same roles' output."""
        _, res_b = run_one(True, faults=degrade_plan())
        _, res_r = run_one(False, faults=degrade_plan())
        assert_equivalent(res_b, res_r)

    def test_no_live_wakeups_after_faulted_run(self):
        """A completed faulted run must cancel the heartbeat senders'
        and monitor's parked timeouts — a stale wakeup per group
        would otherwise linger in the calendar (O(groups) tombstones
        firing into dead closures)."""
        m, res = run_one(True, faults=degrade_plan())
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
