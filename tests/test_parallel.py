"""The parallel sample executor: bit-equality with serial execution.

The whole value proposition of :mod:`repro.harness.parallel` is that
fanning samples out over worker processes changes wall-clock time and
nothing else: same seeds, same order, same floats.  These tests pin
that contract, the job-count resolution rules, the non-picklable
serial fallback, and the instrumentation merge.
"""

import os
import pickle
import warnings
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.harness.experiment import sample_seed
from repro.harness.parallel import parallel_map, resolve_jobs, run_samples
from repro.session import active_session, instrumented
from repro.telemetry import MetricsRegistry
from repro.trace import TraceEvent, Tracer


def _echo_seed(seed: int) -> int:
    return seed


def _simulate(seed: int) -> tuple:
    """A seed-determined numeric result (stands in for a machine run)."""
    rng = np.random.default_rng(seed)
    draws = rng.normal(size=64)
    return float(draws.sum()), float(draws.min()), float(draws.max())


def _traced_sample(seed: int) -> int:
    session = active_session()
    if session is not None and session.tracer is not None:
        session.tracer.instant(
            "sample", cat="test", pid="test", tid=f"seed {seed}"
        )
    return seed


class TestResolveJobs:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs() == 1

    def test_explicit_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "7")
        assert resolve_jobs(3) == 3

    def test_env_used_when_no_arg(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "5")
        assert resolve_jobs() == 5

    def test_zero_means_all_cores(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs(0) == (os.cpu_count() or 1)
        monkeypatch.setenv("REPRO_JOBS", "0")
        assert resolve_jobs() == (os.cpu_count() or 1)

    def test_bad_env_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "lots")
        with pytest.raises(ValueError, match="REPRO_JOBS"):
            resolve_jobs()


class TestRunSamples:
    def test_seed_derivation_and_order(self):
        out = run_samples(_echo_seed, 5, base_seed=42, jobs=1)
        assert out == [sample_seed(42, i) for i in range(5)]

    def test_parallel_seed_derivation_and_order(self):
        out = run_samples(_echo_seed, 5, base_seed=42, jobs=2)
        assert out == [sample_seed(42, i) for i in range(5)]

    def test_rejects_zero_samples(self):
        with pytest.raises(ValueError):
            run_samples(_echo_seed, 0)

    @settings(max_examples=10, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=6),
        base=st.integers(min_value=0, max_value=2**20),
    )
    def test_parallel_bit_identical_to_serial(self, n, base):
        serial = run_samples(_simulate, n, base, jobs=1)
        parallel = run_samples(_simulate, n, base, jobs=2)
        # == on floats, not approx: the contract is bit-equality.
        assert serial == parallel

    def test_end_to_end_figure_bit_identical(self):
        fig3 = pytest.importorskip("repro.harness.figures.fig3")
        serial = fig3.run("smoke", 0).to_dict()
        os.environ["REPRO_JOBS"] = "2"
        try:
            parallel = fig3.run("smoke", 0).to_dict()
        finally:
            del os.environ["REPRO_JOBS"]
        assert serial == parallel


class TestParallelMap:
    def test_order_stability(self):
        items = list(range(10))
        assert parallel_map(_echo_seed, items, jobs=3) == items

    def test_serial_when_jobs_one(self):
        assert parallel_map(_echo_seed, [1, 2, 3], jobs=1) == [1, 2, 3]

    def test_non_picklable_falls_back_with_warning(self):
        captured = []
        fn = lambda x: x * 2  # noqa: E731 - deliberately unpicklable
        with pytest.raises(Exception):
            pickle.dumps(fn)
        with warnings.catch_warnings(record=True) as w:
            warnings.simplefilter("always")
            out = parallel_map(fn, [1, 2, 3], jobs=2)
            captured = [x for x in w if x.category is RuntimeWarning]
        assert out == [2, 4, 6]
        assert captured, "expected a RuntimeWarning on serial fallback"
        assert "not picklable" in str(captured[0].message)

    def test_partial_of_module_function_is_parallelizable(self):
        fn = partial(_echo_seed)
        pickle.dumps(fn)  # must not raise
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert parallel_map(fn, [1, 2], jobs=2) == [1, 2]

    def test_tracer_collects_worker_events_in_sample_order(self):
        with instrumented(tracer=Tracer()) as session:
            parallel_map(_traced_sample, [10, 11, 12], jobs=2)
        t = session.tracer
        names = [(e.tid, e.run) for e in t.events if e.name == "sample"]
        # One run per sample, in submission order, distinct run indices.
        assert names == [("seed 10", 0), ("seed 11", 1), ("seed 12", 2)]
        assert t.n_runs == 3


class TestTracerAbsorb:
    def _ev(self, run):
        return TraceEvent(
            "i", "x", "test", 0.0, pid="p", tid="t", run=run
        )

    def test_reindexes_runs_onto_own_sequence(self):
        t = Tracer()
        t._n_binds = 2  # two local runs already recorded
        t.absorb([self._ev(0), self._ev(1), self._ev(0)])
        assert [e.run for e in t.events] == [2, 3, 2]
        assert t._n_binds == 4

    def test_absorb_empty_is_noop(self):
        t = Tracer()
        t.absorb([])
        assert len(t.events) == 0
        assert t._n_binds == 0

    def test_successive_absorbs_stack(self):
        t = Tracer()
        t.absorb([self._ev(0)])
        t.absorb([self._ev(0)])
        assert [e.run for e in t.events] == [0, 1]
        assert t.n_runs == 2


class TestChurnHeavyCellParallel:
    def test_interference_cell_bit_identical_to_serial(self):
        """Churn is where the incremental reallocator and same-instant
        settle coalescing live: an interference cell keeps background
        writers starting/finishing flows continuously, so most settles
        take the incremental patch path.  The cell must still fan out
        bit-identically — the patched allocations are exactly the batch
        ones."""
        from repro.apps.xgc1 import xgc1
        from repro.harness.figures.appbench import SweepConfig, _run_cell

        cfg = SweepConfig(
            pool_osts=12, adaptive_osts=8, stripe_cap=4,
            proc_counts=(24,), n_samples=2,
        )
        cell = partial(
            _run_cell, xgc1(), "adaptive", "interference", 24, cfg=cfg
        )
        serial = run_samples(cell, 2, base_seed=3, jobs=1)
        parallel = run_samples(cell, 2, base_seed=3, jobs=2)
        assert serial == parallel


class TestFaultedRunsParallel:
    def test_faulted_sweep_cell_bit_identical_to_serial(self):
        """Fault injection must not break the parallel contract: a
        resilience cell (baseline run + faulted run + re-run model)
        fans out over workers bit-identically, because each sample
        builds its plan inside the cell from its derived seed."""
        from repro.harness.figures.resilience import _one_cell

        cell = partial(
            _one_cell, method="adaptive", k=2,
            n_osts=16, cap=4, n_ranks=64, mb=16.0,
        )
        serial = run_samples(cell, 2, base_seed=0, jobs=1)
        parallel = run_samples(cell, 2, base_seed=0, jobs=2)
        assert serial == parallel

    def test_corruption_cell_bit_identical_to_serial(self):
        """Corruption faults + scrub are seed-deterministic: an
        integrity cell (three runs + a scrub + detection stats) must
        produce identical reports serial and fanned out."""
        from repro.harness.figures.resilience import _integrity_cell

        cell = partial(
            _integrity_cell, method="adaptive",
            n_osts=16, cap=4, n_ranks=64, mb=16.0,
        )
        serial = run_samples(cell, 2, base_seed=0, jobs=1)
        parallel = run_samples(cell, 2, base_seed=0, jobs=2)
        assert serial == parallel
        assert all(s["undetected"] == 0.0 for s in serial)

    def test_env_fault_plan_reaches_workers(self, tmp_path):
        """REPRO_FAULTS (the --faults propagation channel) must be
        honoured by worker processes: machines built in a worker pick
        the plan up from the environment."""
        from repro.faults import two_ost_failure_plan

        path = tmp_path / "plan.json"
        two_ost_failure_plan(osts=(0, 1), at=0.01).save_json(str(path))
        os.environ["REPRO_FAULTS"] = str(path)
        try:
            out = parallel_map(_machine_has_faults, [0, 1], jobs=2)
        finally:
            del os.environ["REPRO_FAULTS"]
        assert out == [True, True]
        assert parallel_map(_machine_has_faults, [0], jobs=1) == [False]


def _machine_has_faults(seed: int) -> bool:
    from repro.machines import jaguar

    m = jaguar(n_osts=4).build(n_ranks=4, seed=seed)
    return m.faults is not None


def _metered_cell(seed: int) -> dict:
    """Module-level (picklable) adaptive cell; JSON-safe result fields
    for exact bit-equality comparison across telemetry modes."""
    from repro.apps import AppKernel, Variable
    from repro.core.transports import AdaptiveTransport
    from repro.machines import jaguar
    from repro.units import MB

    m = jaguar(n_osts=8).build(n_ranks=16, seed=seed)
    app = AppKernel("metered", [Variable("x", shape=(int(8 * MB / 8),))])
    res = AdaptiveTransport(n_osts_used=8).run(m, app, output_name="out")
    return {
        "reported_time": res.reported_time,
        "bandwidth": res.aggregate_bandwidth,
        "imbalance": res.imbalance_factor,
        "n_adaptive_writes": res.n_adaptive_writes,
    }


class TestTelemetryParallel:
    def test_results_bit_identical_with_and_without_metrics(self):
        """Ambient telemetry must be a pure observer: the settle-hook
        sampler never splits a cache-integration step, so every float
        in the result is unchanged — with a live registry, a disabled
        one, or none at all."""
        plain = _metered_cell(7)
        reg = MetricsRegistry()
        with instrumented(registry=reg):
            metered = _metered_cell(7)
        with instrumented(registry=MetricsRegistry(enabled=False)):
            disabled = _metered_cell(7)
        assert len(reg) > 0  # telemetry actually collected something
        # == on floats, not approx: the contract is bit-equality.
        assert metered == plain
        assert disabled == plain

    def test_parallel_metrics_merge_matches_serial(self):
        """Every job collects into its own registry and the parent
        absorbs them in submission order — on the serial path and in
        the workers alike.  Results stay bit-identical and the whole
        snapshot equals the serial one (histogram sums included, which
        a single running sum over all jobs would round differently),
        bar the ``sched.*`` instruments only a scheduled sweep has."""
        for n_samples in (2, 4):
            reg_serial, reg_par = MetricsRegistry(), MetricsRegistry()
            with instrumented(registry=reg_serial):
                serial = run_samples(_metered_cell, n_samples, 3, jobs=1)
            with instrumented(registry=reg_par):
                parallel = run_samples(_metered_cell, n_samples, 3, jobs=2)
            assert serial == parallel
            assert reg_serial.n_runs == reg_par.n_runs == n_samples
            assert reg_serial.find("counter", "fs.writes").value > 0
            assert _without_sched(reg_serial.snapshot()) == _without_sched(
                reg_par.snapshot()
            )

    def test_tracer_and_registry_together(self):
        """Both instruments active at once share one run numbering:
        the trace's run indices are exactly the registry's runs, on a
        2-worker sweep as on the serial one."""
        def sweep(jobs):
            with instrumented(tracer=Tracer(),
                              registry=MetricsRegistry()) as session:
                results = run_samples(_metered_cell, 3, 5, jobs=jobs)
            return results, session.tracer, session.registry

        serial, t_serial, reg_serial = sweep(1)
        parallel, t_par, reg_par = sweep(2)
        assert serial == parallel
        runs = {ev.run for ev in t_par.events}
        assert runs == set(range(reg_par.n_runs)) == set(range(3))
        assert runs == {ev.run for ev in t_serial.events}
        assert reg_serial.n_runs == reg_par.n_runs
        assert t_serial.events == t_par.events
        assert _without_sched(reg_serial.snapshot()) == _without_sched(
            reg_par.snapshot()
        )


def _without_sched(snapshot: dict) -> dict:
    return dict(snapshot, metrics=[
        m for m in snapshot["metrics"] if not m["name"].startswith("sched.")
    ])
