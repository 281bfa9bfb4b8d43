"""Load recordings from the online monitor's per-OST series, plus their
headline use: showing that adaptive IO balances storage-target usage
where MPI-IO leaves stragglers.

A machine built with a registry carries a settle-hook
:class:`~repro.telemetry.OnlineMonitor` that samples ``ost.inflow`` and
``ost.streams`` at every settle — every instant the per-OST flow state
can change — until its sample budget forces decimation, which these
short runs never reach.  The balance statistics below are computed
from those series, weighting each sample by the simulated time to the
next one (the last by the time to the end of the run), which makes
them exact time averages.
"""

import numpy as np
import pytest

from repro.apps import AppKernel, Variable
from repro.core.transports import AdaptiveTransport, MpiIoTransport
from repro.machines import jaguar
from repro.session import instrumented
from repro.telemetry import MetricsRegistry
from repro.units import MB


def app(mb=16.0):
    return AppKernel("r", [Variable("x", shape=(int(mb * MB / 8),))])


def build(n_ranks=32, n_osts=8, seed=0, **kw):
    """A machine with a registry, so a default monitor records it."""
    with instrumented(registry=MetricsRegistry()):
        return jaguar(n_osts=n_osts).build(n_ranks=n_ranks, seed=seed, **kw)


class Recording:
    """One machine's monitor series as ``(samples, OSTs)`` matrices."""

    def __init__(self, machine):
        self.machine = machine
        inflow = self.field("ost.inflow")
        self.times = np.array([t for _, t, _ in inflow[0]]) if inflow \
            else np.zeros(0)
        self.weights = np.diff(self.times, append=machine.env.now)

    def field(self, name):
        reg = self.machine.env.metrics
        out = []
        for i in range(self.machine.pool.n_sinks):
            s = reg.find("series", name, ost=i)
            if s is not None:
                out.append(s.samples)
        return out

    def matrix(self, name):
        cols = self.field(name)
        if not cols or not cols[0]:
            raise ValueError("no samples recorded")
        return np.array([[v for _, _, v in col] for col in cols]).T


def record_run(transport, n_ranks=32, n_osts=8, seed=0, slow=None):
    m = build(n_ranks=n_ranks, n_osts=n_osts, seed=seed)
    m.fs.max_stripe_count = max(2, n_osts // 4)
    if slow is not None:
        m.pool.set_load_multiplier(0.1, osts=np.array(slow))
    res = transport.run(m, app(), output_name="out")
    return Recording(m), res


# -- balance statistics over a recording ----------------------------------
def busy_fraction(rec):
    """Per-OST fraction of recorded time with at least one active
    stream."""
    busy = (rec.matrix("ost.streams") > 0).astype(float)
    return busy.T @ rec.weights / rec.weights.sum()


def jain_fairness(rec):
    """Jain's index of mean per-OST inflow: 1.0 = perfectly even use."""
    share = rec.matrix("ost.inflow").T @ rec.weights / rec.weights.sum()
    return float(share.sum() ** 2 / (len(share) * (share**2).sum()))


def straggler_window(rec, threshold=0.5):
    """Seconds during which fewer than ``threshold`` of the OSTs that
    were ever used are still active — the long tail where a few
    stragglers hold the job."""
    if len(rec.times) < 2:
        return 0.0
    counts = rec.matrix("ost.streams")
    ever_used = (counts > 0).any(axis=0)
    active_now = (counts[:, ever_used] > 0).sum(axis=1)
    live = np.nonzero(active_now > 0)[0]
    if live.size == 0:
        return 0.0
    span = slice(live[0], live[-1] + 1)
    tail = active_now[span] < threshold * ever_used.sum()
    return float(rec.weights[span][tail].sum())


class TestMonitorSeries:
    def test_samples_accumulate(self):
        rec, _ = record_run(AdaptiveTransport())
        n = len(rec.times)
        assert n >= 5
        assert rec.matrix("ost.inflow").shape == (n, 8)
        assert rec.matrix("ost.streams").shape == (n, 8)
        # a non-decreasing timeline within the run
        assert (rec.weights >= 0).all()
        assert 0.0 <= rec.times[0] and rec.times[-1] <= rec.machine.env.now

    def test_busy_fraction_bounds(self):
        rec, _ = record_run(AdaptiveTransport())
        busy = busy_fraction(rec)
        assert ((busy >= 0) & (busy <= 1)).all()
        assert busy.max() > 0

    def test_summary_fields(self):
        rec, _ = record_run(AdaptiveTransport())
        assert 0 < jain_fairness(rec) <= 1.0
        assert rec.matrix("ost.inflow").sum(axis=1).max() > 0
        for name in ("ost.cache_fill", "ost.state"):
            assert rec.matrix(name).shape == (len(rec.times), 8)


class TestEdgeCases:
    def test_empty_samples_errors_are_clear(self):
        m = build(n_ranks=4, n_osts=4)
        rec = Recording(m)
        assert len(rec.times) == 0
        for fn in (busy_fraction, jain_fairness):
            with pytest.raises(ValueError, match="no samples"):
                fn(rec)
        assert straggler_window(rec) == 0.0

    def test_straggler_window_single_sample(self):
        m = build()
        m.monitor.interval = 1e3  # longer than the run
        AdaptiveTransport().run(m, app(), output_name="out")
        rec = Recording(m)
        assert len(rec.times) == 1
        assert straggler_window(rec) == 0.0

    def test_straggler_window_never_used_osts(self):
        """A machine that never writes: load-multiplier pushes still
        settle the fabric, every sample is all-idle, so no OST was ever
        used and the window is zero."""
        m = build(n_ranks=4, n_osts=4)

        def pushes():
            for k in range(4):
                yield m.env.timeout(0.5)
                m.pool.set_load_multiplier(0.5 + 0.1 * k)

        m.env.process(pushes())
        m.env.run(until=2.1)
        rec = Recording(m)
        assert len(rec.times) >= 4
        assert straggler_window(rec) == 0.0
        assert straggler_window(rec, threshold=1.0) == 0.0

    def test_straggler_window_threshold_one(self):
        """threshold=1.0 counts every live sample where at least one
        used OST is idle; it is bounded by the recorded span."""
        rec, _ = record_run(AdaptiveTransport(), seed=4)
        w_half = straggler_window(rec, 0.5)
        w_full = straggler_window(rec, 1.0)
        assert 0.0 <= w_half <= w_full
        assert w_full <= rec.weights.sum()


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

    def test_default_monitor_records_every_settle(self):
        """The default monitor's series hold every settle of a run, so
        the time-weighted balance reads the flow state that held: with
        OST 0 slowed, adaptive spreads its inflow nearly evenly over
        all 8 targets while MPI-IO's 2-stripe file uses 2 of them.
        Sampling only the first settle after each 0.05 s recorded 3 of
        the adaptive run's 31 settles and read 0.125 for both."""
        rec_a, _ = record_run(AdaptiveTransport(), seed=2, slow=[0])
        rec_m, _ = record_run(MpiIoTransport(build_index=False),
                              seed=2, slow=[0])
        for rec in (rec_a, rec_m):
            assert len(rec.times) == rec.machine.fs.fabric.settle_count
        assert len(rec_a.times) == 31
        assert jain_fairness(rec_a) == pytest.approx(0.955, abs=5e-4)
        assert jain_fairness(rec_m) == pytest.approx(0.250, abs=5e-4)

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
        """A faulted run that aborts mid-write leaves consistent
        series: samples up to the abort are kept and the sample matrix
        stays rectangular."""
        from repro.errors import TransportError
        from repro.faults import two_ost_failure_plan

        plan = two_ost_failure_plan(osts=(0, 1), at=0.05)
        m = build(faults=plan)
        m.fs.max_stripe_count = 2
        with pytest.raises(TransportError):
            MpiIoTransport(build_index=False).run(m, app(), "out")
        rec = Recording(m)
        assert len(rec.times) >= 1
        assert rec.matrix("ost.inflow").shape == (len(rec.times), 8)
        jain_fairness(rec)  # must not raise on a partial run
