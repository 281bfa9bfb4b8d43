"""End-to-end tests for the tracing subsystem.

The headline round trip: run the adaptive protocol with tracing on,
export the Chrome trace-event JSON, load it back, and check that the
span structure is well-formed and that the protocol's steering
decisions reference real OSTs.  Plus the negative: an absent tracer
records nothing and changes nothing.
"""

import json

import pytest

from repro.apps import AppKernel, Variable
from repro.core.transports import AdaptiveTransport, MpiIoTransport
from repro.machines import jaguar
from repro.session import active_session, instrumented
from repro.trace import Tracer, check_well_formed
from repro.trace import chrome
from repro.trace.counters import PHASES, per_writer_counters, render_report
from repro.units import MB

N_RANKS = 16
N_OSTS = 8
PER_PROC_MB = 4.0


def app():
    return AppKernel(
        "traced", [Variable("x", shape=(int(PER_PROC_MB * MB / 8),))]
    )


def traced_run(transport=None, tracer=None, seed=0):
    m = jaguar(n_osts=N_OSTS).build(n_ranks=N_RANKS, seed=seed)
    if tracer is not None:
        m.env.set_tracer(tracer)
    t = transport or AdaptiveTransport(n_osts_used=N_OSTS)
    res = t.run(m, app(), output_name="out")
    return m, res


class TestTracerCore:
    def test_span_nesting_checker(self):
        tr = Tracer()
        tr.begin("a", cat="t", pid="p", tid="t1", ts=0.0)
        tr.begin("b", cat="t", pid="p", tid="t1", ts=1.0)
        tr.end("b", cat="t", pid="p", tid="t1", ts=2.0)
        tr.end("a", cat="t", pid="p", tid="t1", ts=3.0)
        assert check_well_formed(tr.events) == []

    def test_checker_catches_improper_nesting(self):
        tr = Tracer()
        tr.begin("a", cat="t", pid="p", tid="t1", ts=0.0)
        tr.begin("b", cat="t", pid="p", tid="t1", ts=1.0)
        tr.end("a", cat="t", pid="p", tid="t1", ts=2.0)
        problems = check_well_formed(tr.events)
        assert problems and "improper nesting" in problems[0]

    def test_checker_catches_unclosed_and_orphan(self):
        tr = Tracer()
        tr.begin("a", cat="t", pid="p", tid="t1", ts=0.0)
        tr.end("z", cat="t", pid="p", tid="t2", ts=1.0)
        problems = check_well_formed(tr.events)
        assert any("never closed" in p for p in problems)
        assert any("no open span" in p for p in problems)

    def test_disabled_tracer_records_nothing(self):
        """Off is absent: a tracer detached from the environment after
        build records nothing from any layer, the OST pool included."""
        tr = Tracer()
        with instrumented(tracer=tr):
            m = jaguar(n_osts=N_OSTS).build(n_ranks=N_RANKS, seed=0)
        m.env.set_tracer(None)
        AdaptiveTransport(n_osts_used=N_OSTS).run(m, app(), output_name="out")
        assert len(tr) == 0

    def test_active_tracer_scoping(self):
        assert active_session() is None
        tr = Tracer()
        with instrumented(tracer=tr):
            assert active_session().tracer is tr
        assert active_session() is None


class TestAdaptiveRoundTrip:
    @pytest.fixture(scope="class")
    def traced(self, tmp_path_factory):
        tr = Tracer()
        m, res = traced_run(tracer=tr)
        path = tmp_path_factory.mktemp("trace") / "trace.json"
        chrome.export(tr.events, str(path))
        return tr, m, res, path

    def test_trace_has_all_layers(self, traced):
        tr, _, _, _ = traced
        cats = {ev.cat for ev in tr.events}
        assert {"ost", "fabric", "mpi", "writer", "steer"} <= cats

    def test_export_is_valid_chrome_json(self, traced):
        _, _, _, path = traced
        doc = json.loads(path.read_text())
        assert "traceEvents" in doc
        phases = {rec["ph"] for rec in doc["traceEvents"]}
        assert {"M", "B", "E", "i", "C", "X"} <= phases
        # every non-metadata record references a named process track
        pids = {
            rec["pid"]
            for rec in doc["traceEvents"]
            if rec["ph"] == "M" and rec["name"] == "process_name"
        }
        for rec in doc["traceEvents"]:
            if rec["ph"] != "M":
                assert rec["pid"] in pids

    def test_round_trip_is_well_formed(self, traced):
        tr, _, _, path = traced
        loaded = chrome.load(str(path))
        assert len(loaded) == len(tr.events)
        assert check_well_formed(loaded) == []

    def test_round_trip_preserves_labels_and_times(self, traced):
        tr, _, _, path = traced
        loaded = chrome.load(str(path))
        for orig, back in zip(tr.events, loaded):
            assert back.ph == orig.ph
            assert back.name == orig.name
            assert back.pid == orig.pid
            assert back.tid == orig.tid
            assert back.ts == pytest.approx(orig.ts, abs=1e-9)

    def test_steering_events_reference_real_osts(self, traced):
        tr, m, _, _ = traced
        starts = [
            ev for ev in tr.events if ev.name == "ADAPTIVE_WRITE_START"
        ]
        assert starts, "adaptive run recorded no ADAPTIVE_WRITE_START"
        for ev in starts:
            ost = ev.args["target_ost"]
            assert 0 <= ost < m.n_osts

    def test_writer_spans_on_node_tracks(self, traced):
        tr, m, _, _ = traced
        writer_evs = [ev for ev in tr.events if ev.cat == "writer"]
        ranks = {ev.tid for ev in writer_evs}
        assert ranks == {f"rank {r}" for r in range(N_RANKS)}
        for ev in writer_evs:
            assert ev.pid.startswith("node/")

    def test_ost_service_spans_cover_every_used_ost(self, traced):
        tr, _, _, _ = traced
        served = {
            ev.pid for ev in tr.events if ev.name == "ost.service"
        }
        assert len(served) == N_OSTS  # adaptive uses all targets


class TestCounters:
    def test_per_writer_bytes_match_app(self):
        tr = Tracer()
        _, res = traced_run(tracer=tr)
        counters = per_writer_counters(tr.events)
        assert len(counters) == N_RANKS
        total = sum(wc.bytes_written for wc in counters)
        assert total == pytest.approx(N_RANKS * PER_PROC_MB * MB)
        for wc in counters:
            assert wc.write_count >= 1
            assert wc.total_time > 0
            assert wc.slowest_phase in PHASES
            assert set(wc.time) == set(PHASES)

    def test_adaptive_writes_counted(self):
        import numpy as np

        tr = Tracer()
        # One slow target + writers outnumbering targets: the
        # coordinator must steer, and every steered write shows up in
        # the trace with the adaptive flag.
        m = jaguar(n_osts=8).build(n_ranks=64, seed=3)
        m.fs.max_stripe_count = 2
        m.pool.set_load_multiplier(0.1, osts=np.array([0]))
        m.env.set_tracer(tr)
        res = AdaptiveTransport().run(m, app(), output_name="out")
        assert res.n_adaptive_writes > 0
        counters = per_writer_counters(tr.events)
        assert (
            sum(wc.adaptive_writes for wc in counters)
            == res.n_adaptive_writes
        )

    def test_report_renders(self):
        tr = Tracer()
        traced_run(tracer=tr)
        counters = per_writer_counters(tr.events)
        full = render_report(counters)
        assert "# run 0:" in full
        assert "rank 0" in full and f"rank {N_RANKS - 1}" in full
        trimmed = render_report(counters, top=5)
        assert "more writers" in trimmed  # 16 writers, top 5 shown

    def test_mpiio_writers_have_no_wait_phase_spans(self):
        tr = Tracer()
        _, res = traced_run(
            transport=MpiIoTransport(build_index=False), tracer=tr
        )
        counters = per_writer_counters(tr.events)
        assert counters
        # no coordinator in MPI-IO: wait time only from the offset
        # exchange, index disabled entirely
        assert all(wc.time["index"] == 0.0 for wc in counters)


class TestAttachAfterBuild:
    def test_tracer_set_on_env_after_build_reaches_ost_pool(self):
        """Every layer reads ``env.tracer``: a tracer set on the
        environment of an already-built machine records the pool's
        stream counters and cache transitions, exactly as one
        attached at build."""
        big = AppKernel("big", [Variable("x", shape=(int(128 * MB / 8),))])
        at_build, after = Tracer(), Tracer()
        with instrumented(tracer=at_build):
            m = jaguar(n_osts=4).build(n_ranks=16, seed=0)
        AdaptiveTransport(n_osts_used=4).run(m, big, output_name="out")
        m = jaguar(n_osts=4).build(n_ranks=16, seed=0)
        m.env.set_tracer(after)
        AdaptiveTransport(n_osts_used=4).run(m, big, output_name="out")
        pool_names = {
            ev.name for ev in after.events if ev.pid.startswith("ost/")
        }
        assert {"streams", "cache.full", "cache.drained"} <= pool_names
        assert after.events == at_build.events


class TestDisabledTracing:
    def test_run_identical_with_and_without_tracer(self):
        _, res_plain = traced_run(seed=7)
        tr = Tracer()
        _, res_traced = traced_run(tracer=tr, seed=7)
        off = Tracer()
        with instrumented(tracer=off):
            m_off = jaguar(n_osts=N_OSTS).build(n_ranks=N_RANKS, seed=7)
        m_off.env.set_tracer(None)  # attached, then absent
        res_off = AdaptiveTransport(n_osts_used=N_OSTS).run(
            m_off, app(), output_name="out"
        )
        assert len(tr.events) > 0
        assert len(off.events) == 0
        assert res_traced.reported_time == res_plain.reported_time
        assert res_off.reported_time == res_plain.reported_time
        assert (
            res_traced.aggregate_bandwidth == res_plain.aggregate_bandwidth
        )

    def test_untraced_env_has_no_tracer(self):
        m, _ = traced_run(seed=3)
        assert m.env.tracer is None


class TestMultiRun:
    def test_runs_separate_in_export(self, tmp_path):
        tr = Tracer()
        traced_run(tracer=tr, seed=0)
        traced_run(tracer=tr, seed=1)
        runs = {ev.run for ev in tr.events}
        assert runs == {0, 1}
        path = tmp_path / "multi.json"
        chrome.export(tr.events, str(path))
        loaded = chrome.load(str(path))
        assert {ev.run for ev in loaded} == {0, 1}
        assert check_well_formed(loaded) == []
        counters = per_writer_counters(loaded)
        assert len(counters) == 2 * N_RANKS


class TestCli:
    def test_trace_cli_summary_and_check(self, tmp_path, capsys):
        from repro.tools.trace import main

        tr = Tracer()
        traced_run(tracer=tr)
        path = tmp_path / "trace.json"
        chrome.export(tr.events, str(path))

        assert main([str(path)]) == 0
        out = capsys.readouterr().out
        assert "events" in out
        assert "rank 0" in out

        assert main([str(path), "--check"]) == 0
        out = capsys.readouterr().out
        assert "span nesting: OK" in out


class TestReportEdgeCases:
    @staticmethod
    def _span(tr, name, t0, t1, tid="rank 0", pid="node/0", args=None):
        tr.begin(name, cat="writer", pid=pid, tid=tid, ts=t0, args=args)
        tr.end(name, cat="writer", pid=pid, tid=tid, ts=t1)

    def test_empty_events_render_placeholder(self):
        assert per_writer_counters([]) == []
        assert render_report([]) == (
            "no writer-phase spans in trace (was tracing enabled?)"
        )

    def test_trace_without_writer_spans_renders_placeholder(self):
        """Instants and non-writer categories alone produce no
        counters — the report must say so, not crash on max()."""
        tr = Tracer()
        tr.instant("ost.failstop", cat="fault", pid="p", tid="t")
        with tr.span("settle", cat="fabric", pid="p", tid="t"):
            pass
        counters = per_writer_counters(tr.events)
        assert counters == []
        assert "was tracing enabled?" in render_report(counters)

    def test_zero_byte_writer_renders_0_b(self):
        """A writer whose write span moved no data must render '0 B'
        (not divide by zero or print an empty cell), and its bandwidth
        is inf by convention when write time is zero too."""
        tr = Tracer()
        self._span(tr, "write", 0.0, 1.0, args={"nbytes": 0.0})
        counters = per_writer_counters(tr.events)
        assert len(counters) == 1
        wc = counters[0]
        assert wc.bytes_written == 0.0
        assert wc.bandwidth == 0.0  # 0 bytes / 1s
        report = render_report(counters)
        assert "0 B" in report
        # Zero write *time* with zero bytes: bandwidth is inf by the
        # t<=0 convention, and the report still renders.
        tr2 = Tracer()
        self._span(tr2, "write", 2.0, 2.0, tid="rank 1",
                   args={"nbytes": 0.0})
        wc2 = per_writer_counters(tr2.events)[0]
        assert wc2.bandwidth == float("inf")
        assert "0 B" in render_report([wc2])

    def test_integrity_columns_only_when_detections_present(self):
        tr = Tracer()
        self._span(tr, "write", 0.0, 1.0, args={"nbytes": 1e6})
        tr.instant("write.verify_fail", cat="integrity",
                   pid="node/0", tid="rank 0", ts=1.0)
        tr.instant("scrub.detect", cat="integrity",
                   pid="node/0", tid="rank 0", ts=1.5)
        tr.instant("block.repair", cat="integrity",
                   pid="node/0", tid="rank 0", ts=2.0)
        counters = per_writer_counters(tr.events)
        wc = counters[0]
        assert wc.corrupt_detected == 2 and wc.repaired == 1
        report = render_report(counters)
        assert "2 corrupt block(s) detected" in report
        assert "1 repaired" in report
        assert " det" in report and " rep" in report
        # The clean report carries no integrity columns at all.
        tr2 = Tracer()
        self._span(tr2, "write", 0.0, 1.0, args={"nbytes": 1e6})
        clean = render_report(per_writer_counters(tr2.events))
        assert "det" not in clean and "corrupt" not in clean

    def test_repair_without_detection_still_shows_columns(self):
        """repaired>0 alone (detection attributed to another writer's
        trace, say) must still switch the integrity columns on."""
        tr = Tracer()
        self._span(tr, "write", 0.0, 1.0, args={"nbytes": 1e6})
        tr.instant("block.repair", cat="integrity",
                   pid="node/0", tid="rank 0", ts=2.0)
        report = render_report(per_writer_counters(tr.events))
        assert "0 corrupt block(s) detected, 1 repaired" in report


class TestAbortedRunTraces:
    def test_close_open_spans_closes_in_nesting_order(self):
        tr = Tracer()
        tr.begin("outer", cat="t", pid="p", tid="t1", ts=0.0)
        tr.begin("inner", cat="t", pid="p", tid="t1", ts=1.0)
        tr.begin("other", cat="t", pid="q", tid="t2", ts=0.5)
        closed = tr.close_open_spans(ts=2.0)
        assert closed == 3
        assert check_well_formed(tr.events) == []
        ends = [e for e in tr.events if e.ph == "E"]
        assert all(e.args == {"aborted": True} for e in ends)
        # inner must close before outer on the shared track
        t1_ends = [e.name for e in ends if e.tid == "t1"]
        assert t1_ends == ["inner", "outer"]

    def test_close_open_spans_noop_when_balanced(self):
        tr = Tracer()
        with tr.span("a", cat="t", pid="p", tid="t"):
            pass
        assert tr.close_open_spans() == 0

    def test_aborted_faulted_run_trace_is_well_formed(self):
        """A transport killed mid-write by a fault plan must leave a
        well-formed trace: the failure path closes dangling spans."""
        from repro.errors import TransportError
        from repro.faults import two_ost_failure_plan

        tr = Tracer()
        plan = two_ost_failure_plan(osts=(0, 1), at=0.01)
        m = jaguar(n_osts=N_OSTS).build(
            n_ranks=N_RANKS, seed=0, faults=plan
        )
        m.env.set_tracer(tr)
        with pytest.raises(TransportError):
            MpiIoTransport(build_index=False).run(m, app(), "out")
        assert check_well_formed(tr.events) == []
        names = {e.name for e in tr.events if e.cat == "fault"}
        assert "ost.failstop" in names

    def test_retry_and_abort_instants_counted_per_writer(self):
        """Fault instants on writer tracks land in the per-writer
        counters and surface in the report; fault-free reports carry
        no retry/abort columns."""
        from repro.errors import TransportError
        from repro.faults import two_ost_failure_plan

        tr = Tracer()
        plan = two_ost_failure_plan(osts=(0, 1), at=0.01)
        m = jaguar(n_osts=N_OSTS).build(
            n_ranks=N_RANKS, seed=0, faults=plan
        )
        m.env.set_tracer(tr)
        with pytest.raises(TransportError):
            MpiIoTransport(build_index=False).run(m, app(), "out")
        counters = per_writer_counters(tr.events)
        assert sum(c.aborts for c in counters) > 0
        report = render_report(counters)
        assert "abort" in report

        tr2 = Tracer()
        traced_run(transport=MpiIoTransport(), tracer=tr2)
        clean = per_writer_counters(tr2.events)
        assert all(c.retries == 0 and c.aborts == 0 for c in clean)
        assert "abort" not in render_report(clean)
