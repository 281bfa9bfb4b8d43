"""The resumable sweep scheduler: checkpoints, chaos, and resume.

Pins the tentpole contracts of :mod:`repro.service`:

* job ids are deterministic functions of (label, fn, seed);
* the journal round-trips results bit-exactly, tolerates a truncated
  final line, and survives mid-file corruption with everything before
  the damage intact;
* a worker SIGKILLed mid-job is detected, its job adopted and retried,
  and the finished sweep is bit-identical to a clean serial run;
* hung jobs are killed at their wall-clock deadline and retried within
  the budget; exhausted budgets fail loudly with the cell's label,
  sample seed, and a reproduction one-liner (:class:`JobFailure`);
* a sweep process SIGKILLed mid-run resumes from its journal and the
  final results are bit-identical to an uninterrupted run;
* ``repro.tools.experiment --journal`` drives all of the above from the
  CLI, and ``repro.tools.bench_report --partial`` renders its progress.
"""

import json
import os
import signal
import subprocess
import sys
import time
from functools import partial
from types import SimpleNamespace

import pytest

from repro.errors import ConfigurationError, JobFailure
from repro.faults import RetryPolicy
from repro.harness.experiment import sample_seed
from repro.service import (
    Journal,
    Scheduler,
    job_id,
    journal_in,
    make_job,
)
from repro.service.journal import (
    JOURNAL_NAME,
    decode_result,
    encode_result,
    replay,
    summarize,
)

SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")


@pytest.fixture(autouse=True)
def _clean_service_env():
    """Isolate the scheduler's env channels and the journal cache."""
    saved = {
        k: os.environ.get(k)
        for k in ("REPRO_JOURNAL", "REPRO_JOBS", "REPRO_JOB_TIMEOUT",
                  "REPRO_JOB_RETRIES")
    }
    yield
    for k, v in saved.items():
        if v is None:
            os.environ.pop(k, None)
        else:
            os.environ[k] = v
    from repro.service import journal as journal_mod

    journal_mod._journals.clear()


# -- picklable job functions (module level on purpose) --------------------

def _double(seed: int) -> float:
    return seed * 2.0


def _tupled(seed: int) -> tuple:
    return (seed, seed * 0.5, [seed, {"s": seed}])


def _boom(seed: int) -> float:
    raise ValueError(f"deterministic failure for seed {seed}")


def _record_and_double(seed: int, out_dir: str) -> float:
    """Leaves one marker file per *execution* (not per restore)."""
    with open(os.path.join(out_dir, f"ran_{seed}_{os.getpid()}"), "a"):
        pass
    return seed * 2.0


def _die_once(seed: int, marker_dir: str) -> float:
    """SIGKILL own worker on the first attempt; succeed on the retry."""
    marker = os.path.join(marker_dir, f"died_{seed}")
    if not os.path.exists(marker):
        with open(marker, "w"):
            pass
        os.kill(os.getpid(), signal.SIGKILL)
    return seed * 2.0


def _die_always(seed: int) -> float:
    os.kill(os.getpid(), signal.SIGKILL)
    return 0.0  # pragma: no cover


def _die_in_workers(seed: int, parent_pid: int) -> float:
    """SIGKILL any worker process; succeed only inline in the parent."""
    if os.getpid() != parent_pid:
        os.kill(os.getpid(), signal.SIGKILL)
    return seed * 2.0


def _hang_once(seed: int, marker_dir: str) -> float:
    marker = os.path.join(marker_dir, f"hung_{seed}")
    if not os.path.exists(marker):
        with open(marker, "w"):
            pass
        time.sleep(60.0)
    return seed + 0.25


def _fast_policy() -> RetryPolicy:
    return RetryPolicy(max_retries=3, backoff_base=0.01, backoff_cap=0.05)


class TestJobIds:
    def test_deterministic_and_seed_sensitive(self):
        a = job_id("cell", partial(_double), 7)
        assert a == job_id("cell", partial(_double), 7)
        assert a != job_id("cell", partial(_double), 8)
        assert a != job_id("other", partial(_double), 7)

    def test_stable_across_processes(self, tmp_path):
        """No PYTHONHASHSEED / pid / time leakage into ids."""
        code = (
            "import sys; sys.path.insert(0, {src!r});"
            "from functools import partial;"
            "from repro.service import job_id;"
            "from tests.test_service import _double;"
            "print(job_id('cell', partial(_double), 7))"
        ).format(src=SRC)
        env = dict(os.environ, PYTHONHASHSEED="99",
                   PYTHONPATH=os.pathsep.join(
                       [SRC, os.path.dirname(SRC)]))
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, text=True,
            capture_output=True, check=True,
            cwd=os.path.dirname(SRC),
        ).stdout.strip()
        assert out == job_id("cell", partial(_double), 7)


class TestJournal:
    def test_result_encoding_round_trips_exactly(self):
        for value in (
            None, True, 3, 0.1 + 0.2, "x", [1, [2.5, "y"]],
            {"a": 1.0000000000000002},
            (1, 2.5),               # tuple -> pickle path
            {"nested": (1,)},       # tuple inside dict -> pickle path
            float("nan"),           # non-strict JSON -> pickle path
        ):
            decoded = decode_result(encode_result(value))
            assert type(decoded) is type(value)
            if value == value:  # NaN compares unequal to itself
                assert decoded == value

    def test_truncated_last_line_is_discarded(self, tmp_path):
        path = str(tmp_path / JOURNAL_NAME)
        j = Journal(path)
        j.append({"kind": "done", "job": "a", "label": "cell#0",
                  "result": {"json": 1}})
        j.append({"kind": "done", "job": "b", "label": "cell#1",
                  "result": {"json": 2}})
        j.close()
        with open(path, "a") as fh:
            fh.write('{"kind": "done", "job": "c", "resu')  # crash here
        fresh = Journal(path)
        assert set(fresh.done) == {"a", "b"}
        assert fresh.discarded_lines == 1

    def test_mid_file_corruption_keeps_earlier_checkpoints(self, tmp_path):
        path = str(tmp_path / JOURNAL_NAME)
        j = Journal(path)
        j.append({"kind": "done", "job": "a", "result": {"json": 1}})
        j.close()
        with open(path, "a") as fh:
            fh.write("NOT JSON\n")
            fh.write(json.dumps(
                {"kind": "done", "job": "b", "result": {"json": 2}}
            ) + "\n")
        with pytest.warns(RuntimeWarning, match="corrupt record"):
            records, discarded = replay(path)
        assert [r["job"] for r in records] == ["a"]
        assert discarded == 2

    def test_summarize_counts(self, tmp_path):
        j = Journal(str(tmp_path / JOURNAL_NAME))
        j.append({"kind": "plan", "label": "cell", "jobs": 3})
        j.append({"kind": "done", "job": "a", "label": "cell#0",
                  "attempt": 0, "elapsed": 0.5, "result": {"json": 1}})
        j.append({"kind": "done", "job": "b", "label": "cell#1",
                  "attempt": 2, "elapsed": 0.5, "result": {"json": 2}})
        j.append({"kind": "failed", "job": "c", "label": "cell#2",
                  "error": "x"})
        j.close()
        cell = summarize(str(tmp_path))["labels"]["cell"]
        assert (cell["planned"], cell["done"], cell["pending"]) == (3, 2, 1)
        assert (cell["retried"], cell["failed"]) == (1, 1)


class TestResume:
    def _jobs(self, fn, n, base_seed=0, label="cell"):
        return [
            make_job(fn, sample_seed(base_seed, i), label=label, index=i)
            for i in range(n)
        ]

    def test_second_run_restores_without_recompute(self, tmp_path):
        state = tmp_path / "state"
        fn = partial(_record_and_double, out_dir=str(tmp_path))
        jobs = self._jobs(fn, 4)
        first = Scheduler(journal=journal_in(str(state))).run(jobs, "cell")
        ran = len(os.listdir(tmp_path)) - 1  # minus state dir
        assert ran == 4
        sched = Scheduler(journal=journal_in(str(state)))
        second = sched.run(self._jobs(fn, 4), "cell")
        assert second == first
        assert sched.stats.restored == 4 and sched.stats.done == 0
        assert len(os.listdir(tmp_path)) - 1 == 4  # nothing re-executed

    def test_restored_results_are_bit_identical_pickles(self, tmp_path):
        state = str(tmp_path / "state")
        jobs = self._jobs(_tupled, 3)
        first = Scheduler(journal=journal_in(state)).run(jobs, "cell")
        second = Scheduler(journal=Journal(
            os.path.join(state, JOURNAL_NAME)
        )).run(self._jobs(_tupled, 3), "cell")
        assert second == first
        assert all(type(r) is tuple for r in second)

    def test_failed_jobs_are_retried_on_resume(self, tmp_path):
        state = str(tmp_path / "state")
        with pytest.raises(JobFailure):
            Scheduler(journal=journal_in(state)).run(
                self._jobs(_boom, 2), "cell"
            )
        sched = Scheduler(journal=Journal(
            os.path.join(state, JOURNAL_NAME)
        ))
        # Same ids, working fn: the failure record does not pin them.
        out = sched.run(self._jobs(_double, 2), "cell")
        assert sched.stats.restored == 0
        assert out == [0.0, 2.0]


class TestInstrumentationScope:
    def test_inline_run_keeps_callers_disabled_instruments(self, tmp_path):
        """Jobs run under their own (here: no) instrumentation, and the
        caller's session — one whose instruments are all absent — is
        back in place once the batch is done."""
        from repro.session import active_session, instrumented

        jobs = [make_job(_double, s, label="cell", index=s) for s in (1, 2)]
        with instrumented() as outer:
            sched = Scheduler(n_workers=1, journal=journal_in(str(tmp_path)))
            assert sched.run(jobs, "cell") == [2.0, 4.0]
            assert active_session() is outer
            assert outer.tracer is None and outer.registry is None
        assert active_session() is None


class TestChaos:
    def test_sigkilled_worker_is_adopted_and_sweep_completes(
        self, tmp_path
    ):
        fn = partial(_die_once, marker_dir=str(tmp_path))
        jobs = [make_job(fn, s, label="chaos", index=i)
                for i, s in enumerate((3, 4, 5, 6))]
        sched = Scheduler(n_workers=2, policy=_fast_policy())
        out = sched.run(jobs, "chaos")
        assert out == [6.0, 8.0, 10.0, 12.0]  # == serial expectation
        assert sched.stats.adoptions >= 1
        assert sched.stats.retries >= 1

    def test_chaos_run_bit_identical_and_checkpointed(self, tmp_path):
        state = str(tmp_path / "state")
        fn = partial(_die_once, marker_dir=str(tmp_path))
        jobs = [make_job(fn, s, label="chaos", index=i)
                for i, s in enumerate((1, 2, 3))]
        sched = Scheduler(
            n_workers=2, policy=_fast_policy(),
            journal=journal_in(state),
        )
        out = sched.run(jobs, "chaos")
        assert out == [2.0, 4.0, 6.0]
        # Every completion was checkpointed despite the carnage.
        fresh = Journal(os.path.join(state, JOURNAL_NAME))
        assert len(fresh.done) == 3

    def test_retry_budget_exhaustion_fails_loudly(self):
        jobs = [make_job(_die_always, 11, label="doomed", index=0)]
        sched = Scheduler(
            n_workers=1 + 1,  # force the pool path with a 2nd job
            policy=RetryPolicy(max_retries=1, backoff_base=0.01,
                               backoff_cap=0.05),
        )
        jobs.append(make_job(_double, 12, label="doomed", index=1))
        with pytest.raises(JobFailure, match="retry budget"):
            sched.run(jobs, "doomed")

    def test_hung_job_times_out_and_retries(self, tmp_path):
        fn = partial(_hang_once, marker_dir=str(tmp_path))
        jobs = [make_job(fn, 9, label="slow", index=0),
                make_job(fn, 10, label="slow", index=1)]
        sched = Scheduler(
            n_workers=2, policy=_fast_policy(), job_timeout=0.6,
        )
        out = sched.run(jobs, "slow")
        assert out == [9.25, 10.25]
        assert sched.stats.timeouts >= 1

    def test_degraded_serial_fallback_when_pool_exhausted(self):
        """Workers all die, respawn budget zero: the batch must still
        finish inline rather than deadlock or abort."""
        fn = partial(_die_in_workers, parent_pid=os.getpid())
        jobs = [make_job(fn, s, label="deg", index=i)
                for i, s in enumerate((1, 2, 3, 4))]
        sched = Scheduler(n_workers=2, policy=_fast_policy())
        sched.max_respawns = 0
        out = sched.run(jobs, "deg")
        assert out == [2.0, 4.0, 6.0, 8.0]
        assert sched.stats.serial_fallback

    def test_duplicate_ids_rejected(self):
        job = make_job(_double, 1, label="dup", index=0)
        with pytest.raises(ConfigurationError, match="duplicate"):
            Scheduler().run([job, job], "dup")


class TestJobFailureMessage:
    def test_names_cell_seed_and_reproduction(self):
        jobs = [make_job(_boom, sample_seed(5, 0),
                         label="fig9[cell]", index=0)]
        with pytest.raises(JobFailure) as info:
            Scheduler().run(jobs, "fig9[cell]")
        msg = str(info.value)
        assert "fig9[cell]#0" in msg
        assert f"sample_seed={sample_seed(5, 0)}" in msg
        assert "deterministic failure" in msg
        assert info.value.job_id
        assert isinstance(info.value.__cause__, ValueError)

    def test_worker_failure_carries_same_context(self):
        jobs = [make_job(_boom, sample_seed(2, i), label="figX", index=i)
                for i in range(2)]
        with pytest.raises(JobFailure) as info:
            Scheduler(n_workers=2).run(jobs, "figX")
        assert "figX" in str(info.value)
        assert "sample_seed=" in str(info.value)


_KILL_SCRIPT = """\
import json, os, sys, time
sys.path.insert(0, {src!r})
os.environ["REPRO_JOURNAL"] = {state!r}

def slow(seed):
    time.sleep(0.25)
    return [seed, seed * 0.5, "s%d" % seed]

from repro.harness.parallel import run_samples
out = run_samples(slow, 6, base_seed=5, label="killable")
with open({out!r}, "w") as fh:
    json.dump(out, fh)
"""


class TestCrashResume:
    def test_sigkilled_sweep_resumes_bit_identical(self, tmp_path):
        """The headline chaos scenario: SIGKILL the whole sweep process
        mid-run, re-run the same command, and the final results equal
        an uninterrupted run's — with the already-finished prefix
        restored, not recomputed."""
        state = str(tmp_path / "state")
        out_file = str(tmp_path / "out.json")
        script = str(tmp_path / "sweep.py")
        with open(script, "w") as fh:
            fh.write(_KILL_SCRIPT.format(
                src=SRC, state=state, out=out_file
            ))
        journal = os.path.join(state, JOURNAL_NAME)

        proc = subprocess.Popen([sys.executable, script])
        try:
            deadline = time.time() + 30.0
            while time.time() < deadline:
                done = sum(
                    1 for r in replay(journal)[0] if r["kind"] == "done"
                )
                if done >= 2:
                    break
                time.sleep(0.02)
            else:
                pytest.fail("sweep never checkpointed a job")
            proc.kill()
        finally:
            proc.wait()
        assert not os.path.exists(out_file)
        n_before = sum(
            1 for r in replay(journal)[0] if r["kind"] == "done"
        )
        assert 1 <= n_before < 6

        subprocess.run([sys.executable, script], check=True, timeout=60)
        with open(out_file) as fh:
            resumed = json.load(fh)
        assert resumed == [
            [s, s * 0.5, "s%d" % s]
            for s in (sample_seed(5, i) for i in range(6))
        ]
        records = [r for r in replay(journal)[0] if r["kind"] == "done"]
        assert len(records) == 6  # resume filled in exactly the rest
        assert len({r["job"] for r in records}) == 6


def _counter(path, name):
    with open(path) as fh:
        for inst in json.load(fh)["metrics"]:
            if inst["name"] == name:
                return inst["state"]
    raise KeyError(name)


def _kinds(state):
    return [r["kind"] for r in replay(os.path.join(state, JOURNAL_NAME))[0]]


class TestJournalCli:
    """``experiment --journal`` is the resumable sweep CLI."""

    def _run(self, argv):
        from repro.tools.experiment import main

        return main(argv)

    def test_rerun_resumes_without_recompute(self, tmp_path, capsys):
        state = str(tmp_path / "state")
        m1, m2 = str(tmp_path / "m1.json"), str(tmp_path / "m2.json")
        argv = ["fig1", "--scale", "smoke", "--journal", state]
        assert self._run(argv + ["--metrics", m1]) == 0
        first = capsys.readouterr().out
        kinds = _kinds(state)
        assert self._run(argv + ["--metrics", m2]) == 0
        second = capsys.readouterr().out

        done = _counter(m1, "sched.jobs_done")
        assert done == 6
        assert _counter(m2, "sched.jobs_restored") == done
        assert _counter(m2, "sched.jobs_done") == 0
        # A resume plans each batch again but checkpoints nothing new.
        appended = _kinds(state)[len(kinds):]
        assert appended and set(appended) == {"plan"}

        def steady(text):
            return [line for line in text.splitlines()
                    if "s wall]" not in line
                    and not line.startswith("[metrics:")]

        assert steady(second) == steady(first)

    def test_manifest_rejects_parameter_drift(self, tmp_path):
        state = str(tmp_path / "state")
        assert self._run([
            "fig1", "--scale", "smoke", "--journal", state,
        ]) == 0
        n_lines = len(_kinds(state))
        for drift, key in ((["--seed", "1"], "seed"),
                           (["--scale", "small"], "scale")):
            with pytest.raises(SystemExit, match=key) as exc:
                self._run(["fig1", "--scale", "smoke", "--journal",
                           state] + drift)
            assert "fresh --journal" in str(exc.value)
        assert len(_kinds(state)) == n_lines  # nothing recomputed

    def test_inherited_env_journal_rejects_parameter_drift(
        self, tmp_path, monkeypatch
    ):
        """An inherited REPRO_JOURNAL is checked like --journal."""
        state = str(tmp_path / "state")
        monkeypatch.setenv("REPRO_JOURNAL", state)
        assert self._run(["fig1", "--scale", "smoke"]) == 0
        n_lines = len(_kinds(state))
        with pytest.raises(SystemExit, match="seed") as exc:
            self._run(["fig1", "--scale", "smoke", "--seed", "1"])
        assert "fresh --journal" in str(exc.value)
        assert len(_kinds(state)) == n_lines  # nothing recomputed

    def test_benchmark_suite_journal_pins_the_scale(
        self, tmp_path, monkeypatch
    ):
        """``pytest benchmarks/ --journal DIR`` opens DIR through the
        same manifest check."""
        import importlib.util

        path = os.path.join(os.path.dirname(SRC), "benchmarks",
                            "conftest.py")
        spec = importlib.util.spec_from_file_location("bench_conftest",
                                                      path)
        conftest = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(conftest)
        state = str(tmp_path / "state")
        options = {"--jobs": None, "--journal": state}
        config = SimpleNamespace(
            getoption=lambda name, default=None: options.get(name, default),
            option=SimpleNamespace(trace=None),
        )
        monkeypatch.setenv("REPRO_SCALE", "smoke")
        conftest.pytest_configure(config)
        assert os.environ["REPRO_JOURNAL"] == state
        with open(os.path.join(state, "manifest.json")) as fh:
            assert json.load(fh)["scale"] == "smoke"
        monkeypatch.setenv("REPRO_SCALE", "small")
        with pytest.raises(pytest.UsageError, match="scale"):
            conftest.pytest_configure(config)

    def test_other_artifacts_merge_into_the_manifest(
        self, tmp_path, monkeypatch
    ):
        from repro.tools.experiment import ARTIFACTS

        for name in ("fig3", "table1"):
            monkeypatch.setitem(
                ARTIFACTS, name,
                lambda scale, seed, name=name: SimpleNamespace(
                    render=lambda: name
                ),
            )
        state = str(tmp_path / "state")
        for name in ("fig3", "table1"):
            assert self._run([name, "--scale", "smoke", "--journal",
                              state]) == 0
        with open(os.path.join(state, "manifest.json")) as fh:
            manifest = json.load(fh)
        assert manifest["artifacts"] == ["fig3", "table1"]
        assert (manifest["scale"], manifest["seed"]) == ("smoke", 0)

    def test_bench_report_partial(self, tmp_path, capsys):
        from repro.tools.bench_report import main as bench_main

        state = str(tmp_path / "state")
        assert self._run([
            "fig1", "--scale", "smoke", "--journal", state,
        ]) == 0
        capsys.readouterr()
        assert bench_main(["--partial", state]) == 0
        text = capsys.readouterr().out
        assert "| fig1[" in text
        assert "| (total) | done |" in text

    def test_bench_report_partial_without_a_journal_fails(
        self, tmp_path, capsys
    ):
        from repro.tools.bench_report import main as bench_main

        missing = str(tmp_path / "nowhere")
        assert bench_main(["--partial", missing]) == 1
        captured = capsys.readouterr()
        assert captured.err.strip() == f"no journal in {missing}"
        assert captured.out == ""
        assert not os.path.exists(missing)  # the read stays read-only


class TestRunSamplesJournalEnv:
    def test_env_journal_checkpoints_and_resumes(self, tmp_path, monkeypatch):
        from repro.harness.parallel import run_samples

        state = str(tmp_path / "state")
        os.environ["REPRO_JOURNAL"] = state
        fn = partial(_record_and_double, out_dir=str(tmp_path))
        monkeypatch.setenv("REPRO_JOBS", "1")
        first = run_samples(fn, 3, base_seed=1, label="envcell")
        executions = len(os.listdir(tmp_path)) - 1
        assert executions == 3
        monkeypatch.setenv("REPRO_JOBS", "1")
        second = run_samples(fn, 3, base_seed=1, label="envcell")
        assert second == first
        assert len(os.listdir(tmp_path)) - 1 == 3  # restored, not rerun
