"""The telemetry subsystem: registry, straggler detector, monitor,
profiler, dashboard, CLIs.

The headline validation is the straggler ground-truth cell: a
background job hammers a known minority of OSTs while an adaptive
transport writes a real app's output, and the online detector must
flag exactly the interfered set — no misses, no false alarms.
"""

import json
import math

import numpy as np
import pytest

from repro.apps import AppKernel, Variable
from repro.core.transports import AdaptiveTransport
from repro.machines import jaguar
from repro.session import active_session, instrumented
from repro.telemetry import (
    MetricsRegistry,
    OnlineMonitor,
    Profiler,
    StragglerDetector,
    format_report,
    profiling,
    render_dashboard,
)
from repro.telemetry.profiler import _boundaries
from repro.units import MB


def small_app(mb=2.0):
    return AppKernel(
        "telemetered", [Variable("x", shape=(int(mb * MB / 8),))]
    )


# -- registry -------------------------------------------------------------
class TestInstruments:
    def test_counter_gauge_histogram_series(self):
        reg = MetricsRegistry()
        c = reg.counter("a.count")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5
        g = reg.gauge("a.level")
        g.set(1.0)
        g.set(-2.0)
        assert g.value == -2.0
        h = reg.histogram("a.lat", buckets=(1.0, 10.0))
        h.observe(0.5)
        h.observe(5.0)
        h.observe(50.0)
        assert h.count == 3 and h.sum == 55.5
        s = reg.series("a.ts")
        s.sample(0.0, 1.0)
        s.sample(1.0, 2.0)
        assert s.last == 2.0
        assert len(reg) == 4

    def test_labels_make_distinct_instruments(self):
        reg = MetricsRegistry()
        reg.counter("ost.writes", ost=0).inc()
        reg.counter("ost.writes", ost=1).inc(5)
        # Same name+labels returns the same instrument.
        assert reg.counter("ost.writes", ost=0) is reg.counter(
            "ost.writes", ost=0
        )
        assert reg.find("counter", "ost.writes", ost=1).value == 5.0
        assert reg.find("counter", "ost.writes", ost=7) is None
        assert len(reg.instruments("ost.writes")) == 2

    def test_series_stamped_with_run_index(self):
        reg = MetricsRegistry()

        class _Env:  # stand-in: bind() only identity-checks it
            pass

        reg.bind(_Env())
        s = reg.series("ts")
        s.sample(0.5, 1.0)
        reg.bind(_Env())  # new environment -> new run
        s.sample(0.1, 2.0)
        assert s.samples == [(0, 0.5, 1.0), (1, 0.1, 2.0)]
        assert reg.n_runs == 2

    def test_disabled_registry_hands_out_noop_instruments(self):
        """Off is absent: a machine built without a registry holds no
        instrument handles and installs no monitor, and a registry
        detached from the environment after build records nothing."""
        bare = jaguar(n_osts=4).build(n_ranks=4, seed=0)
        assert bare.env.metrics is None and bare.monitor is None
        assert bare.fs.fabric._m_settles is None
        assert bare.fs._m_writes is None
        reg = MetricsRegistry()
        with instrumented(registry=reg):
            m = jaguar(n_osts=4).build(n_ranks=4, seed=0)
        m.env.set_metrics(None)
        m.pool.fail_ost(0)  # the pool reads env.metrics per call
        assert reg.find("counter", "ost.state_changes",
                        to="failed", ost=0) is None


class TestSnapshotAbsorb:
    def _worker_snapshot(self, n_runs=1, count=3.0):
        reg = MetricsRegistry()
        reg._n_binds = n_runs
        reg.counter("fabric.settles").inc(count)
        reg.gauge("fabric.active_flows").set(7.0)
        h = reg.histogram("t.phase", buckets=(1.0, 10.0), phase="write")
        h.observe(0.5)
        s = reg.series("ost.inflow", ost=0)
        s.sample(0.25, 9.0)
        return reg.snapshot()

    def test_snapshot_round_trips_through_json(self):
        snap = self._worker_snapshot()
        loaded = json.loads(json.dumps(snap))
        reg = MetricsRegistry()
        reg.absorb(loaded)
        assert reg.find("counter", "fabric.settles").value == 3.0
        assert reg.find(
            "histogram", "t.phase", phase="write"
        ).count == 1

    def test_absorb_adds_counters_and_rebases_series_runs(self):
        reg = MetricsRegistry()
        reg._n_binds = 2  # two local runs already recorded
        reg.counter("fabric.settles").inc(10)
        reg.absorb(self._worker_snapshot(n_runs=1, count=3.0))
        reg.absorb(self._worker_snapshot(n_runs=2, count=4.0))
        assert reg.find("counter", "fabric.settles").value == 17.0
        s = reg.find("series", "ost.inflow", ost=0)
        # Worker run 0 lands after the local runs: 2, then 3 (the
        # second worker's base skips the first worker's 1 run... which
        # claimed indices 2; second absorb starts at 3).
        assert [r for r, _, _ in s.samples] == [2, 3]
        assert reg._n_binds == 5  # 2 local + 1 + 2
        assert reg.n_runs == 5

    def test_disabled_registry_ignores_absorb(self):
        """A session without a registry drops a job's snapshot, and a
        registry ignores a job that recorded none."""
        from repro.session import Session

        Session().absorb(None, self._worker_snapshot())
        reg = MetricsRegistry()
        reg.absorb(None)
        assert len(reg) == 0 and reg._n_binds == 0


class TestPrometheus:
    def test_exposition_parses(self):
        reg = MetricsRegistry()
        reg.counter("fabric.settles").inc(3)
        reg.counter("transport.bytes", transport="adaptive").inc(1e9)
        reg.histogram("t.phase", buckets=(1.0, 10.0)).observe(0.5)
        reg.gauge("flows").set(4)
        s = reg.series("ost.inflow", ost=3)
        s.sample(0.0, 5.0)
        s.sample(1.0, 6.5)
        text = reg.to_prometheus()
        assert "repro_fabric_settles_total 3" in text
        assert 'transport="adaptive"' in text
        saw_sample = False
        for line in text.splitlines():
            if not line or line.startswith("#"):
                continue
            name, value = line.rsplit(" ", 1)
            assert name
            assert math.isfinite(float(value))
            saw_sample = True
        assert saw_sample
        # Histogram triplet with the +Inf bucket.
        assert 'le="+Inf"' in text
        assert "repro_t_phase_sum" in text
        assert "repro_t_phase_count 1" in text
        # Series exports its latest value.
        assert "6.5" in text


class TestActiveRegistry:
    def test_collecting_scopes_the_active_registry(self):
        assert active_session() is None
        reg = MetricsRegistry()
        inner = MetricsRegistry()
        with instrumented(registry=reg):
            assert active_session().registry is reg
            with instrumented(registry=inner):
                assert active_session().registry is inner
            assert active_session().registry is reg
        assert active_session() is None

    def test_machine_build_attaches_active_registry(self):
        with instrumented(registry=MetricsRegistry()) as session:
            m = jaguar(n_osts=4).build(n_ranks=4, seed=0)
        reg = session.registry
        assert m.monitor is not None
        assert m.env.metrics is reg
        # Outside the scope, builds are bare again.
        m2 = jaguar(n_osts=4).build(n_ranks=4, seed=0)
        assert m2.monitor is None
        assert m2.env.metrics is None

    def test_snapshot_carries_instruments_resolved_at_construction(self):
        """The fabric and the file system resolve their instruments
        when built, so a snapshot carries them even at zero: a fig1
        posix cell never flushes, yet ``fs.flushes`` is there."""
        from repro.harness.figures.fig1 import _one_cell

        reg = MetricsRegistry()
        with instrumented(registry=reg):
            _one_cell(8, 1, 8, 0)
        assert reg.find("counter", "fs.flushes").value == 0.0
        flush_seconds = reg.find("histogram", "fs.flush_seconds")
        assert flush_seconds.count == 0 and not any(flush_seconds.counts)
        assert reg.find("counter", "fabric.coalesced_settles") is not None
        # Both realloc kinds, though this cell never patches in place.
        assert len(reg.instruments("fabric.reallocs")) == 2


# -- straggler detector ---------------------------------------------------
class TestStragglerDetector:
    def _feed(self, det, rates, n, t0=0.0, dt=1.0):
        rates = np.asarray(rates, dtype=float)
        active = np.ones(len(rates), dtype=bool)
        for k in range(n):
            det.update(t0 + k * dt, rates, active)

    def test_slow_minority_flagged_fast_majority_not(self):
        det = StragglerDetector(8)
        rates = [10.0] + [100.0] * 7
        self._feed(det, rates, 5)
        assert det.stragglers() == {0}
        assert det.is_straggler(0) and not det.is_straggler(1)
        assert det.ever_flagged() == {0}
        assert det.first_flag_time[0] == 2.0  # 3rd sample: min_samples
        assert det.zscores()[0] < -det.z_threshold
        summary = det.summary()
        assert summary["flagged"] == [0]
        assert summary["first_flag_time"] == {"0": 2.0}

    def test_uniform_pool_never_flags(self):
        det = StragglerDetector(8)
        # Tiny jitter around a common rate: the MAD floor and deficit
        # guard must keep noise-level variation unflagged.
        rates = 100.0 + 0.001 * np.arange(8)
        self._feed(det, rates, 10)
        assert det.stragglers() == set()
        assert det.ever_flagged() == set()

    def test_recovery_unflags_and_records_transition(self):
        det = StragglerDetector(8)
        self._feed(det, [10.0] + [100.0] * 7, 5)
        assert det.stragglers() == {0}
        # OST 0 comes back: its EWMA climbs past the deficit bound.
        self._feed(det, [100.0] * 8, 10, t0=10.0)
        assert det.stragglers() == set()
        assert det.ever_flagged() == {0}  # history survives recovery
        flags = [(ost, up) for _, ost, up in det.transitions]
        assert flags == [(0, True), (0, False)]

    def test_idle_osts_are_not_judged(self):
        det = StragglerDetector(8)
        rates = np.array([0.0, 0.0] + [100.0] * 6)
        active = rates > 0
        for k in range(5):
            det.update(float(k), rates, active)
        # 0 and 1 are unused, not slow.
        assert det.stragglers() == set()
        assert det.n_updates[0] == 0

    def test_idle_osts_leave_the_baseline(self):
        """An idle OST's EWMA is stale: two busy targets that slow down
        while six others sit idle are judged against each other only
        (too few for a baseline), never against the idle six's last
        readings."""
        det = StragglerDetector(8)
        self._feed(det, [100.0] * 8, 3)
        rates = np.array([60.0, 60.0] + [0.0] * 6)
        for k in range(10):
            det.update(3.0 + k, rates, rates > 0)
        assert det.ever_flagged() == set()

    def test_idle_straggler_keeps_its_flag(self):
        det = StragglerDetector(8)
        self._feed(det, [10.0] + [100.0] * 7, 5)
        assert det.stragglers() == {0}
        rates = np.array([0.0] + [100.0] * 7)
        det.update(5.0, rates, rates > 0)
        assert det.stragglers() == {0}
        assert [up for _, _, up in det.transitions] == [True]

    def test_needs_three_judged_osts(self):
        det = StragglerDetector(2)
        self._feed(det, [1.0, 100.0], 10)
        assert det.stragglers() == set()  # 2 judged < 3: no baseline

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            StragglerDetector(0)
        det = StragglerDetector(4)
        with pytest.raises(ValueError):
            det.update(0.0, np.zeros(3), np.zeros(3, dtype=bool))


# -- monitor --------------------------------------------------------------
class TestOnlineMonitor:
    def _machine(self, registry):
        m = jaguar(n_osts=4).build(n_ranks=4, seed=0)
        mon = OnlineMonitor(m, registry)
        mon.interval, mon.max_samples = 1.0, 4
        return m, mon

    def test_doubling_decimation_bounds_samples(self):
        reg = MetricsRegistry()
        m, mon = self._machine(reg)
        reg.bind(m.env)
        for k in range(32):
            mon._record(float(k))
        # The interval doubled (a whole number of times) and the
        # stored timeline stayed within the budget.
        assert mon.interval > 1.0
        assert math.log2(mon.interval).is_integer()
        series = reg.find("series", "ost.inflow", ost=0)
        assert len(series.samples) <= 4
        # Decimation keeps a strictly increasing timeline.
        times = [t for _, t, _ in series.samples]
        assert times == sorted(times)

    def test_first_decimation_sets_interval_from_kept_span(self):
        """Every settle is a sample until the budget fills; the first
        decimation sets the interval to the mean gap of the samples
        kept, later ones double it."""
        reg = MetricsRegistry()
        m = jaguar(n_osts=4).build(n_ranks=4, seed=0)
        mon = OnlineMonitor(m, reg)
        reg.bind(m.env)
        mon.max_samples = 4
        assert mon.interval == 0.0
        for k in range(4):
            mon._record(float(k))
        times = [t for _, t, _ in reg.find("series", "ost.inflow",
                                            ost=0).samples]
        assert times == [0.0, 2.0]
        assert mon.interval == 2.0
        for k in (4, 5):  # two more fill the budget of 4 again
            mon._record(float(k))
        assert mon.interval == 4.0

    def test_decimation_only_thins_current_run(self):
        reg = MetricsRegistry()
        m, mon = self._machine(reg)
        reg.bind(m.env)
        s = reg.series("ost.inflow", ost=0)
        s.samples.append((99, 0.0, 1.0))  # a prior run's sample
        for k in range(8):
            mon._record(float(k))
        assert (99, 0.0, 1.0) in s.samples

    def test_settle_mode_records_ambiently_during_run(self):
        reg = MetricsRegistry()
        with instrumented(registry=reg):
            m = jaguar(n_osts=4).build(n_ranks=8, seed=0)
        # A run long enough to cross several sampling intervals.
        AdaptiveTransport(n_osts_used=4).run(
            m, small_app(mb=16.0), output_name="out"
        )
        s = reg.find("series", "ost.inflow", ost=0)
        assert s is not None and len(s.samples) > 1
        assert reg.find("counter", "fabric.settles").value > 0
        assert reg.find("counter", "fs.writes").value > 0
        assert reg.find(
            "counter", "transport.runs", transport="adaptive"
        ).value == 1.0
        h = reg.find(
            "histogram", "transport.phase_seconds",
            transport="adaptive", phase="write",
        )
        assert h is not None and h.count > 0
        ev = reg.find("series", "sim.events")
        assert ev.last > 0


# -- profiler -------------------------------------------------------------
def _boundary_functions():
    return [getattr(cls, meth) for cls, meth, _ in _boundaries()]


def _profiled_cell(transport, profile: bool):
    """A noisy cell's full result document, optionally profiled."""
    from repro.interference import install_production_noise
    from tests.test_static_goldens import app, result_doc, spec

    machine = spec().build(n_ranks=32, seed=3)
    install_production_noise(machine, live=True)
    if profile:
        with profiling(machine) as prof:
            res = transport.run(machine, app(), output_name="out")
        assert prof.calls["fabric.settle"] > 0
    else:
        res = transport.run(machine, app(), output_name="out")
    return (result_doc(machine, res), machine.env.now,
            machine.env.events_scheduled)


class TestProfiler:
    def test_sections_and_exclusive_attribution(self):
        prof = Profiler()
        prof.push("engine")
        prof.push("fabric.settle")
        prof.pop()
        prof.pop()
        d = prof.to_dict()
        assert d["sections"]["engine"]["calls"] == 1
        assert d["sections"]["fabric.settle"]["calls"] == 1
        # Exclusive: parent self-time excludes the child's span.
        total = sum(s["seconds"] for s in d["sections"].values())
        assert d["tracked_seconds"] == pytest.approx(total)

    def test_profiled_run_attributes_time(self):
        pristine = _boundary_functions()
        m = jaguar(n_osts=4).build(n_ranks=8, seed=0)
        with profiling(m) as prof:
            assert all(hasattr(f, "__wrapped__")
                       for f in _boundary_functions())
            AdaptiveTransport(n_osts_used=4).run(
                m, small_app(), output_name="out"
            )
        d = prof.to_dict()
        assert d["sections"]["engine"]["seconds"] > 0
        assert d["sections"]["protocol"]["seconds"] > 0
        assert d["sections"]["protocol.stream"]["calls"] > 0
        assert d["sections"]["fabric.settle"]["calls"] > 0
        assert d["wall_seconds"] >= d["tracked_seconds"] * 0.99
        report = format_report(d)
        assert "protocol" in report and "total" in report
        # Every boundary is restored: the classes are pristine again.
        assert _boundary_functions() == pristine
        assert m.env.profiler is None
        assert "run" not in vars(m.env)
        assert "_settle" not in vars(m.fs.fabric)

    @pytest.mark.parametrize("transport", ["adaptive", "mpiio"])
    def test_profiling_is_bit_identical(self, transport):
        """The profiler reads wall clocks only: every float of the
        result, the final clock and the event count are unchanged."""
        from repro.core.transports import MpiIoTransport

        make = {"adaptive": lambda: AdaptiveTransport(n_osts_used=8),
                "mpiio": MpiIoTransport}[transport]
        assert (_profiled_cell(make(), profile=True)
                == _profiled_cell(make(), profile=False))

    def test_classes_pristine_after_a_raising_run(self):
        from repro.core.transports import MpiIoTransport
        from repro.errors import TransportError
        from repro.faults import two_ost_failure_plan

        pristine = _boundary_functions()
        plan = two_ost_failure_plan(osts=(0, 1), at=0.05)
        m = jaguar(n_osts=8).build(n_ranks=32, seed=0, faults=plan)
        m.fs.max_stripe_count = 2
        with pytest.raises(TransportError):
            with profiling(m):
                MpiIoTransport(build_index=False).run(
                    m, small_app(mb=16.0), "out")
        assert _boundary_functions() == pristine
        assert m.env.profiler is None
        assert "run" not in vars(m.env)

    def test_double_install_rejected(self):
        m = jaguar(n_osts=4).build(n_ranks=4, seed=0)
        other = jaguar(n_osts=4).build(n_ranks=4, seed=1)
        prof = Profiler()
        prof.install(m)
        try:
            # One machine is profiled at a time, by any profiler.
            with pytest.raises(RuntimeError):
                Profiler().install(m)
            with pytest.raises(RuntimeError):
                Profiler().install(other)
            assert other.env.profiler is None
        finally:
            prof.uninstall()
        assert not any(hasattr(f, "__wrapped__")
                       for f in _boundary_functions())


# -- ground truth: the detector against a known interference plan ---------
@pytest.fixture(scope="module")
def demo_cell():
    from repro.tools.monitor import run_demo_cell

    return run_demo_cell(profile=True)


class TestGroundTruth:
    def test_detector_flags_exactly_the_interfered_osts(self, demo_cell):
        _reg, detector, ground_truth, _prof = demo_cell
        assert detector is not None
        assert detector.ever_flagged() == set(ground_truth)

    def test_flag_transitions_persisted_to_registry(self, demo_cell):
        reg, detector, ground_truth, _prof = demo_cell
        flagged_series = {
            int(inst.labels[0][1])
            for inst in reg.instruments("ost.straggler")
            if any(v == 1.0 for _, _, v in inst.samples)
        }
        assert flagged_series == set(ground_truth)

    def test_demo_profile_has_breakdown(self, demo_cell):
        _reg, _det, _gt, prof = demo_cell
        assert prof["sections"]["protocol"]["seconds"] > 0
        assert prof["wall_seconds"] > 0

    def test_majority_interference_rejected(self):
        from repro.tools.monitor import run_demo_cell

        with pytest.raises(SystemExit):
            run_demo_cell(pool_osts=8, interfere_osts=5)


# -- dashboard ------------------------------------------------------------
class TestDashboard:
    def test_renders_timelines_and_straggler_flags(self, demo_cell):
        reg, _det, ground_truth, prof = demo_cell
        html = render_dashboard(
            reg.snapshot(), profile=prof, title="cell under test"
        )
        assert html.startswith("<!DOCTYPE html>")
        assert "cell under test" in html
        assert "<svg" in html and "polyline" in html
        assert "straggler" in html.lower()
        for ost in ground_truth:
            assert f"<td>ost {ost}</td>" in html  # straggler table row
        # Self-profile table made it in.
        assert "fabric.settle" in html

    def test_renders_empty_snapshot(self):
        html = render_dashboard({"version": 1, "n_runs": 0, "metrics": []})
        assert "<html" in html  # degrades gracefully, no crash


# -- CLIs -----------------------------------------------------------------
class TestMonitorCli:
    def test_live_cell_writes_all_artifacts(self, tmp_path, capsys):
        from repro.tools.monitor import main

        dash = tmp_path / "dash.html"
        mjson = tmp_path / "metrics.json"
        prom = tmp_path / "metrics.prom"
        rc = main([
            "--app", "xgc1", "--procs", "32", "--pool-osts", "12",
            "--interfere-osts", "0", "--seed", "1",
            "--dashboard", str(dash), "--json", str(mjson),
            "--prometheus", str(prom),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "stragglers flagged" in out
        assert "<svg" in dash.read_text()
        snap = json.loads(mjson.read_text())
        assert snap["metrics"]
        assert any(
            line and not line.startswith("#")
            for line in prom.read_text().splitlines()
        )

    def test_from_json_renders_dashboard(self, tmp_path, capsys):
        from repro.tools.monitor import main

        mjson = tmp_path / "metrics.json"
        main([
            "--app", "xgc1", "--procs", "16", "--pool-osts", "8",
            "--interfere-osts", "0", "--json", str(mjson),
        ])
        capsys.readouterr()
        dash = tmp_path / "replay.html"
        assert main(["--from-json", str(mjson),
                     "--dashboard", str(dash)]) == 0
        assert "<svg" in dash.read_text()
        # Prometheus needs a live registry; snapshots are refused.
        with pytest.raises(SystemExit):
            main(["--from-json", str(mjson),
                  "--prometheus", str(tmp_path / "x.prom")])


class TestBenchReport:
    def _write(self, path, name, data):
        path.joinpath(f"BENCH_{name}.json").write_text(
            json.dumps({"name": name, "text": "t", "data": data})
        )

    def test_collects_and_compares_against_previous(self, tmp_path):
        from repro.tools.bench_report import collect, render_markdown

        self._write(tmp_path, "kernel", {
            "events_per_sec": 200.0,
            "wall": {"events": 0.5},
            "previous": {"events_per_sec": 100.0, "wall": {"events": 1.0}},
        })
        self._write(tmp_path, "fresh", {"metric": 7})
        records = collect(tmp_path)
        assert [r["name"] for r in records] == ["fresh", "kernel"]
        kernel = records[1]
        by_name = {m["metric"]: m for m in kernel["metrics"]}
        assert by_name["events_per_sec"]["ratio"] == 2.0
        assert by_name["wall.events"]["ratio"] == 0.5
        md = render_markdown(records)
        assert "| kernel | events_per_sec | 200 | 100 | 2.00x |" in md
        assert "| fresh | metric | 7 | - | - |" in md
        changed = render_markdown(records, changed_only=True)
        assert "fresh" not in changed

    def test_cli_writes_json(self, tmp_path, capsys):
        from repro.tools.bench_report import main

        self._write(tmp_path, "a", {"x": 1.0})
        out_json = tmp_path / "report.json"
        rc = main(["--results", str(tmp_path), "--json", str(out_json)])
        assert rc == 0
        assert "| a | x | 1 |" in capsys.readouterr().out
        payload = json.loads(out_json.read_text())
        assert payload["benchmarks"][0]["name"] == "a"

    def test_missing_dir_fails_cleanly(self, tmp_path, capsys):
        from repro.tools.bench_report import main

        assert main(["--results", str(tmp_path / "nope")]) == 1
        assert "not found" in capsys.readouterr().err


class TestExperimentMetricsFlag:
    def test_metrics_to_writes_snapshot(self, tmp_path):
        from repro.harness.experiment import metrics_to

        path = tmp_path / "m.json"
        with metrics_to(str(path)) as reg:
            m = jaguar(n_osts=4).build(n_ranks=4, seed=0)
            AdaptiveTransport(n_osts_used=4).run(
                m, small_app(), output_name="out"
            )
        assert m.env.metrics is reg
        snap = json.loads(path.read_text())
        names = {x["name"] for x in snap["metrics"]}
        assert "fabric.settles" in names and "ost.inflow" in names
