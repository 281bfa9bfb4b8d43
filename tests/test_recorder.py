"""Caller-owned load recordings with the timer-mode online monitor,
plus their headline use: showing that adaptive IO balances
storage-target usage where MPI-IO leaves stragglers.

``OnlineMonitor(mode="timer", keep_samples=True, max_samples=None)``
samples the pool on an exact cadence (each sample forces fabric
accounting up to now), keeps every sample, and can be stopped,
restarted and cleared.  The balance statistics below are computed
here from its samples.
"""

import numpy as np
import pytest

from repro.apps import AppKernel, Variable
from repro.core.transports import AdaptiveTransport, MpiIoTransport
from repro.machines import jaguar
from repro.telemetry import OnlineMonitor
from repro.units import MB


def app(mb=16.0):
    return AppKernel("r", [Variable("x", shape=(int(mb * MB / 8),))])


def recorder(machine, interval=1.0):
    return OnlineMonitor(machine, interval=interval, mode="timer",
                         keep_samples=True, max_samples=None)


def record_run(transport, n_ranks=32, n_osts=8, seed=0, slow=None):
    m = jaguar(n_osts=n_osts).build(n_ranks=n_ranks, seed=seed)
    m.fs.max_stripe_count = max(2, n_osts // 4)
    if slow is not None:
        m.pool.set_load_multiplier(0.1, osts=np.array(slow))
    rec = recorder(m, interval=0.05)
    rec.start()
    res = transport.run(m, app(), output_name="out")
    rec.stop()
    return rec, res


# -- balance statistics over a recording ----------------------------------
def _stack(rec, field):
    if not rec.samples:
        raise ValueError("no samples recorded")
    return np.vstack([getattr(s, field) for s in rec.samples])


def busy_fraction(rec):
    """Per-OST fraction of samples with at least one active stream."""
    return (_stack(rec, "stream_counts") > 0).mean(axis=0)


def jain_fairness(rec):
    """Jain's index of mean per-OST inflow: 1.0 = perfectly even use."""
    share = _stack(rec, "inflow").mean(axis=0)
    return float(share.sum() ** 2 / (len(share) * (share**2).sum()))


def straggler_window(rec, threshold=0.5):
    """Seconds during which fewer than ``threshold`` of the OSTs that
    were ever used are still active — the long tail where a few
    stragglers hold the job."""
    if len(rec.samples) < 2:
        return 0.0
    counts = _stack(rec, "stream_counts")
    ever_used = (counts > 0).any(axis=0)
    active_now = (counts[:, ever_used] > 0).sum(axis=1)
    live = np.nonzero(active_now > 0)[0]
    if live.size == 0:
        return 0.0
    window = active_now[live[0]: live[-1] + 1]
    return float((window < threshold * ever_used.sum()).sum() * rec.interval)


class TestTimerMonitorMechanics:
    def test_samples_accumulate(self):
        rec, _ = record_run(AdaptiveTransport())
        assert len(rec.samples) >= 5
        assert _stack(rec, "inflow").shape == (len(rec.samples), 8)
        times = [s.time for s in rec.samples]
        # exact cadence: one sample per interval from the start
        assert times == pytest.approx(
            [0.05 * k for k in range(len(times))]
        )

    def test_validation(self):
        m = jaguar(n_osts=4).build(n_ranks=4, seed=0)
        with pytest.raises(ValueError):
            recorder(m, interval=0)
        rec = recorder(m)
        rec.start()
        with pytest.raises(RuntimeError):
            rec.start()

    def test_busy_fraction_bounds(self):
        rec, _ = record_run(AdaptiveTransport())
        busy = busy_fraction(rec)
        assert ((busy >= 0) & (busy <= 1)).all()
        assert busy.max() > 0

    def test_summary_fields(self):
        rec, _ = record_run(AdaptiveTransport())
        assert 0 < jain_fairness(rec) <= 1.0
        assert _stack(rec, "inflow").sum(axis=1).max() > 0
        for s in rec.samples:
            assert s.cache_fill.shape == s.state.shape == (8,)


class TestStopAndRestart:
    def test_stop_cancels_pending_wakeup(self):
        """stop() must not leave the sampler parked on one more
        timeout: the calendar drains immediately and no extra sample
        lands an interval later."""
        m = jaguar(n_osts=4).build(n_ranks=4, seed=0)
        rec = recorder(m, interval=0.5)
        rec.start()
        m.env.run(until=1.6)  # samples at t=0, 0.5, 1.0, 1.5
        n_before = len(rec.samples)
        rec.stop()
        # The cancellation kick fires at the current instant; nothing
        # remains at t=2.0 where the next sample would have landed.
        assert m.env.peek() <= m.env.now
        m.env.run()
        assert m.env.now < 2.0  # clock never reached the next wakeup
        assert len(rec.samples) == n_before

    def test_stop_is_idempotent(self):
        m = jaguar(n_osts=4).build(n_ranks=4, seed=0)
        rec = recorder(m, interval=0.5)
        rec.start()
        m.env.run(until=1.0)
        rec.stop()
        rec.stop()  # second stop: no-op, no crash

    def test_stop_before_first_wakeup(self):
        """stop() immediately after start() — the sampler has not even
        bootstrapped yet, so there is nothing suspended to interrupt."""
        m = jaguar(n_osts=4).build(n_ranks=4, seed=0)
        rec = recorder(m, interval=0.5)
        rec.start()
        rec.stop()
        m.env.run()
        assert len(rec.samples) == 0

    def test_restart_after_stop(self):
        m = jaguar(n_osts=4).build(n_ranks=4, seed=0)
        rec = recorder(m, interval=0.25)
        rec.start()
        m.env.run(until=1.0)
        rec.stop()
        n_window1 = len(rec.samples)
        assert n_window1 >= 4
        rec.start()  # resume: a fresh sampling window
        m.env.run(until=2.0)
        rec.stop()
        assert len(rec.samples) > n_window1
        rec.clear()
        assert len(rec.samples) == 0


class TestEdgeCases:
    def test_empty_samples_errors_are_clear(self):
        m = jaguar(n_osts=4).build(n_ranks=4, seed=0)
        rec = recorder(m)
        assert rec.samples == []
        for fn in (busy_fraction, jain_fairness):
            with pytest.raises(ValueError, match="no samples"):
                fn(rec)
        assert straggler_window(rec) == 0.0

    def test_straggler_window_single_sample(self):
        m = jaguar(n_osts=4).build(n_ranks=4, seed=0)
        rec = recorder(m, interval=0.5)
        rec.start()
        m.env.run(until=0.1)  # sample at t=0 only
        rec.stop()
        assert len(rec.samples) == 1
        assert straggler_window(rec) == 0.0

    def test_straggler_window_never_used_osts(self):
        """A machine that never writes: every sample is all-idle, so
        no OST was ever used and the window is zero."""
        m = jaguar(n_osts=4).build(n_ranks=4, seed=0)
        rec = recorder(m, interval=0.5)
        rec.start()
        m.env.run(until=2.1)
        rec.stop()
        assert len(rec.samples) >= 4
        assert straggler_window(rec) == 0.0
        assert straggler_window(rec, threshold=1.0) == 0.0

    def test_straggler_window_threshold_one(self):
        """threshold=1.0 counts every live sample where at least one
        used OST is idle; it is bounded by the live span."""
        rec, _ = record_run(AdaptiveTransport(), seed=4)
        w_half = straggler_window(rec, 0.5)
        w_full = straggler_window(rec, 1.0)
        assert 0.0 <= w_half <= w_full
        assert w_full <= len(rec.samples) * rec.interval


class TestBalanceStory:
    def test_adaptive_uses_more_targets_than_capped_mpiio(self):
        rec_a, _ = record_run(AdaptiveTransport(), seed=1)
        rec_m, _ = record_run(MpiIoTransport(build_index=False), seed=1)
        used_a = (busy_fraction(rec_a) > 0).sum()
        used_m = (busy_fraction(rec_m) > 0).sum()
        assert used_a > used_m  # 8 targets vs the stripe-capped 2

    def test_adaptive_fairness_exceeds_mpiio_under_slow_target(self):
        rec_a, _ = record_run(AdaptiveTransport(), seed=2, slow=[0])
        rec_m, _ = record_run(MpiIoTransport(build_index=False),
                              seed=2, slow=[0])
        assert jain_fairness(rec_a) > jain_fairness(rec_m)

    def test_straggler_window_shrinks_with_steering(self):
        """With one slow target, the no-steering run ends with a long
        few-targets-active tail; steering shortens it."""
        rec_ns, res_ns = record_run(
            AdaptiveTransport(steering=False), n_ranks=64, seed=3,
            slow=[0],
        )
        rec_s, res_s = record_run(
            AdaptiveTransport(), n_ranks=64, seed=3, slow=[0]
        )
        assert res_s.reported_time < res_ns.reported_time
        assert straggler_window(rec_s) <= straggler_window(rec_ns)


class TestAbortedRuns:
    def test_recorder_stops_cleanly_when_transport_raises(self):
        """A faulted run that aborts mid-write must leave the monitor
        in a consistent, stoppable state: samples up to the abort are
        kept, stop() cancels the pending wakeup, and the sample matrix
        stays rectangular."""
        from repro.errors import TransportError
        from repro.faults import two_ost_failure_plan

        plan = two_ost_failure_plan(osts=(0, 1), at=0.05)
        m = jaguar(n_osts=8).build(n_ranks=32, seed=0, faults=plan)
        m.fs.max_stripe_count = 2
        rec = recorder(m, interval=0.01)
        rec.start()
        with pytest.raises(TransportError):
            MpiIoTransport(build_index=False).run(m, app(), "out")
        rec.stop()
        assert len(rec.samples) >= 1
        assert _stack(rec, "inflow").shape == (len(rec.samples), 8)
        jain_fairness(rec)  # must not raise on a partial run
        # restartable after an abort, like any windowed recording
        rec.start()
        rec.stop()
