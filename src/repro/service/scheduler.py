"""Supervised, checkpointed worker pool for sweep jobs.

The scheduler that subsumes the one-shot ``ProcessPoolExecutor`` in
:mod:`repro.harness.parallel`: jobs (see :mod:`repro.service.job`) are
dispatched to a pool of worker-process *shards* connected by dedicated
pipes, and the parent supervises them —

* **checkpointing**: every completed job is appended to the sweep's
  :class:`~repro.service.journal.Journal` (JSON-lines + fsync) the
  moment its result arrives, so an interrupted sweep resumes from the
  journal instead of starting over;
* **dead-worker detection + adoption**: a worker that crashes (OOM,
  SIGKILL, segfault) closes its pipe; the parent notices, re-queues
  the in-flight job for a surviving shard (an *adoption*), and spawns
  a replacement worker within a respawn budget;
* **timeouts**: a per-job wall-clock deadline kills the hung worker
  and re-queues the job the same way;
* **retries**: re-queued jobs back off exponentially via the fault
  subsystem's :class:`~repro.faults.RetryPolicy` (``max_retries``,
  ``backoff``) — crash loops are bounded, not infinite;
* **degraded serial fallback**: if every worker is dead and the
  respawn budget is spent, the remaining jobs run inline in the
  parent, still checkpointing — a sweep degrades, it does not die;
* **determinism**: each job carries its pre-derived seed and results
  are collated in submission order, so a resumed, retried, adopted,
  or degraded sweep is **bit-identical** to an uninterrupted serial
  run.  Restored results are the pickled originals.

A job that *raises* (as opposed to killing its worker) is treated as
deterministic — the simulator is seeded, so the retry would fail the
same way — and fails the batch immediately with a
:class:`~repro.errors.JobFailure` naming the cell, the sample seed,
and a ready-to-paste reproduction one-liner; no new job is dispatched
after the first failure.

Every job runs under :func:`repro.session.isolate` — inline and in
the worker shards alike — and the batch's ``(events, snapshot)`` pairs
are absorbed into the active instrumentation session in submission
order once the batch winds down.  A job that raises keeps its partial
pair (a worker sends it with the error), so a failed sweep's trace
shows what ran up to the failure.  Scheduler counters land in the
session's registry when it has one: ``sched.jobs_done``,
``sched.jobs_restored``, ``sched.retries``, ``sched.adoptions``,
``sched.timeouts``, ``sched.respawns``, ``sched.checkpoint_bytes``,
``sched.queue_depth``.
"""

from __future__ import annotations

import base64
import heapq
import os
import pickle
import signal
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.errors import ConfigurationError, JobFailure
from repro.service.job import JobSpec, repro_command
from repro.service.journal import Journal, decode_result, encode_result
from repro.session import Session, activate, active_session, isolate

__all__ = ["Scheduler", "SchedulerStats"]


@dataclass
class SchedulerStats:
    """Observable outcome of one :meth:`Scheduler.run` batch."""

    jobs: int = 0
    # Counted as the batch runs, never passed in.
    done: int = field(default=0, init=False)
    failed: int = field(default=0, init=False)
    restored: int = field(default=0, init=False)
    retries: int = field(default=0, init=False)
    adoptions: int = field(default=0, init=False)
    timeouts: int = field(default=0, init=False)
    respawns: int = field(default=0, init=False)
    checkpoint_bytes: int = field(default=0, init=False)
    serial_fallback: bool = field(default=False, init=False)


def _worker_main(conn, session: Optional[Session]) -> None:
    """Shard main loop: recv ``(job_id, fn, arg)``, send the outcome.

    *session* is the parent's session as empty instruments (None when
    the parent has none); it replaces whatever a fork-started worker
    inherited, whose recordings would land in a lost copy.  SIGINT is
    ignored so a ctrl-C lands in the parent only — the parent shuts
    shards down (or a later resume re-adopts the work).
    """
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # pragma: no cover - non-main thread
        pass
    with activate(session):
        while True:
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                return
            if msg is None:
                return
            job_id, fn, arg = msg
            result, exc, events, metrics = isolate(fn, arg)
            if exc is not None:
                try:
                    exc_bytes: Optional[bytes] = pickle.dumps(exc)
                except Exception:
                    exc_bytes = None
                payload = (
                    "err", job_id, f"{type(exc).__name__}: {exc}",
                    "".join(traceback.format_exception(exc)), exc_bytes,
                    events, metrics,
                )
                try:
                    conn.send(payload)
                except Exception:
                    return
                continue
            try:
                conn.send(("ok", job_id, result, events, metrics))
            except Exception as exc:
                try:
                    conn.send((
                        "err", job_id,
                        f"result of {job_id} is not sendable: {exc}", "",
                        None, None, None,
                    ))
                except Exception:
                    return


class _Shard:
    """Parent-side handle of one worker process."""

    __slots__ = ("proc", "conn", "spec", "attempt", "deadline", "started")

    def __init__(self, proc, conn):
        self.proc = proc
        self.conn = conn
        self.spec: Optional[JobSpec] = None
        self.attempt = 0
        self.deadline: Optional[float] = None
        self.started: Optional[float] = None


@dataclass
class _Pending:
    """A job waiting to run (possibly after a retry backoff)."""

    ready_at: float
    seq: int
    spec: JobSpec = field(compare=False)
    attempt: int = field(compare=False)

    def __lt__(self, other):
        return (self.ready_at, self.seq) < (other.ready_at, other.seq)


class Scheduler:
    """Run batches of :class:`JobSpec` with supervision + checkpoints.

    ``n_workers <= 1`` runs jobs inline (no processes) but still
    checkpoints and resumes; ``job_timeout`` is the per-job wall-clock
    budget in seconds (``None`` = unbounded); ``policy`` supplies the
    retry count and backoff curve (defaults to the fault subsystem's
    :class:`~repro.faults.RetryPolicy`); ``max_respawns``, two per
    worker, bounds replacement workers per batch.
    """

    def __init__(
        self,
        n_workers: int = 1,
        policy=None,
        job_timeout: Optional[float] = None,
        journal: Optional[Journal] = None,
    ):
        if policy is None:
            from repro.faults import RetryPolicy

            policy = RetryPolicy()
        self.n_workers = max(1, int(n_workers))
        self.policy = policy
        self.job_timeout = job_timeout
        self.journal = journal
        self.max_respawns = 2 * self.n_workers
        self.stats = SchedulerStats()
        self._m: Dict[str, Any] = {}
        # Adoption events per job id, folded into the job's eventual
        # "done" journal record so the partial view can attribute
        # worker deaths to cells.
        self._adopted_jobs: Dict[str, int] = {}

    # -- telemetry ---------------------------------------------------------
    def _resolve_metrics(self) -> None:
        session = active_session()
        reg = session.registry if session is not None else None
        if reg is None:
            self._m = {}
            return
        self._m = {
            "done": reg.counter("sched.jobs_done"),
            "restored": reg.counter("sched.jobs_restored"),
            "retries": reg.counter("sched.retries"),
            "adoptions": reg.counter("sched.adoptions"),
            "timeouts": reg.counter("sched.timeouts"),
            "respawns": reg.counter("sched.respawns"),
            "checkpoint_bytes": reg.counter("sched.checkpoint_bytes"),
            "queue_depth": reg.gauge("sched.queue_depth"),
        }

    def _count(self, name: str, n: float = 1.0) -> None:
        inst = self._m.get(name)
        if inst is not None:
            inst.inc(n)

    # -- journal helpers ---------------------------------------------------
    def _checkpoint(self, spec: JobSpec, attempt: int, result,
                    events, metrics, elapsed: float) -> None:
        if self.journal is None:
            return
        rec = {
            "kind": "done",
            "job": spec.job_id,
            "label": spec.label,
            "seed": spec.sample_seed,
            "attempt": attempt,
            "elapsed": round(elapsed, 6),
            "result": encode_result(result),
        }
        adopted = self._adopted_jobs.get(spec.job_id, 0)
        if adopted:
            rec["adopted"] = adopted
        for key, buf in (("events", events), ("metrics", metrics)):
            if buf is not None:
                rec[key] = base64.b64encode(pickle.dumps(buf)).decode("ascii")
        n = self.journal.append(rec)
        self.stats.checkpoint_bytes += n
        self._count("checkpoint_bytes", n)

    def _journal_failure(self, spec: JobSpec, error: str) -> None:
        if self.journal is None:
            return
        n = self.journal.append({
            "kind": "failed",
            "job": spec.job_id,
            "label": spec.label,
            "seed": spec.sample_seed,
            "error": error[:2000],
        })
        self.stats.checkpoint_bytes += n
        self._count("checkpoint_bytes", n)

    def _restore(self, spec: JobSpec):
        """``(result, events, metrics)`` from the journal, or None."""
        if self.journal is None:
            return None
        rec = self.journal.done.get(spec.job_id)
        if rec is None or "result" not in rec:
            return None
        events, metrics = (
            pickle.loads(base64.b64decode(rec[key])) if key in rec else None
            for key in ("events", "metrics")
        )
        return decode_result(rec["result"]), events, metrics

    # -- failure construction ---------------------------------------------
    def _failure(self, spec: JobSpec, reason: str, error_text: str = "",
                 cause: Optional[BaseException] = None) -> JobFailure:
        seed = spec.sample_seed
        cmd = repro_command(spec.fn, spec.arg)
        msg = f"job {spec.label!r}"
        if seed is not None:
            msg += f" (sample_seed={seed})"
        msg += f" {reason}"
        if error_text:
            msg += f": {error_text.strip().splitlines()[-1]}"
        if cmd:
            msg += f"\n  reproduce with: {cmd}"
        failure = JobFailure(
            msg, label=spec.label, sample_seed=seed, job_id=spec.job_id,
            repro_command=cmd, error_text=error_text,
        )
        if cause is not None:
            failure.__cause__ = cause
        return failure

    # -- main entry --------------------------------------------------------
    def run(self, jobs: Sequence[JobSpec], label: str = "") -> List[Any]:
        """Execute *jobs*; returns results in submission order.

        Raises the first :class:`~repro.errors.JobFailure` once the
        batch has wound down (new dispatch stops at the first failure).
        """
        jobs = list(jobs)
        ids = [j.job_id for j in jobs]
        if len(set(ids)) != len(ids):
            raise ConfigurationError("duplicate job ids in batch")
        self._resolve_metrics()
        self.stats = SchedulerStats(jobs=len(jobs))

        results: Dict[str, Any] = {}
        aux: Dict[str, tuple] = {}
        failures: List[JobFailure] = []

        if self.journal is not None and jobs:
            n = self.journal.append({
                "kind": "plan",
                "label": label or jobs[0].label,
                "jobs": len(jobs),
            })
            self.stats.checkpoint_bytes += n
            self._count("checkpoint_bytes", n)

        todo: List[JobSpec] = []
        for spec in jobs:
            restored = self._restore(spec)
            if restored is not None:
                results[spec.job_id] = restored[0]
                aux[spec.job_id] = (restored[1], restored[2])
                self.stats.restored += 1
                self._count("restored")
            else:
                todo.append(spec)

        if todo:
            if self.n_workers <= 1 or len(todo) <= 1:
                self._run_inline(todo, results, aux, failures, degraded=False)
            else:
                self._run_pool(todo, results, aux, failures)

        # Absorb instrumentation in submission order, so a fanned-out
        # (or resumed) sweep traces exactly like runs arriving one by
        # one.
        session = active_session()
        if session is not None:
            for job_id in ids:
                session.absorb(*aux.get(job_id, (None, None)))

        if failures:
            raise failures[0]
        return [results[job_id] for job_id in ids]

    # -- inline (serial / degraded) path ----------------------------------
    def _run_inline(self, todo, results, aux, failures,
                    degraded: bool) -> None:
        """Run *todo* in the parent, checkpointing each completion.

        Used both for ``n_workers <= 1`` batches and as the degraded
        fallback when the pool is exhausted; instrumentation is
        isolated per job exactly like a worker would, so the absorb
        step behaves identically on every path.
        """
        if degraded:
            self.stats.serial_fallback = True
        for spec in todo:
            if failures:
                return
            t0 = time.monotonic()
            result, exc, events, metrics = isolate(spec.fn, spec.arg)
            aux[spec.job_id] = (events, metrics)
            if exc is not None:
                self.stats.failed += 1
                self._journal_failure(spec, f"{type(exc).__name__}: {exc}")
                text = "".join(traceback.format_exception(exc))
                failures.append(
                    self._failure(spec, "raised", text, cause=exc)
                )
                continue
            elapsed = time.monotonic() - t0
            results[spec.job_id] = result
            self.stats.done += 1
            self._count("done")
            self._checkpoint(spec, 0, result, events, metrics, elapsed)

    # -- pool path ---------------------------------------------------------
    def _spawn(self, ctx) -> _Shard:
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        session = active_session()
        proc = ctx.Process(
            target=_worker_main,
            args=(child_conn, session.fresh() if session else None),
            daemon=True,
        )
        proc.start()
        child_conn.close()
        return _Shard(proc, parent_conn)

    def _run_pool(self, todo, results, aux, failures) -> None:
        import multiprocessing as mp
        from multiprocessing.connection import wait as conn_wait

        ctx = mp.get_context()
        queue: List[_Pending] = []
        seq = 0
        for spec in todo:
            heapq.heappush(queue, _Pending(0.0, seq, spec, 0))
            seq += 1
        shards: List[_Shard] = []
        respawns = 0
        n_start = min(self.n_workers, len(todo))
        try:
            for _ in range(n_start):
                shards.append(self._spawn(ctx))

            def requeue(spec: JobSpec, attempt: int, why: str) -> None:
                nonlocal seq
                if attempt > self.policy.max_retries:
                    self.stats.failed += 1
                    self._journal_failure(spec, why)
                    failures.append(self._failure(
                        spec,
                        f"exhausted its retry budget "
                        f"({self.policy.max_retries} retries)",
                        why,
                    ))
                    return
                self.stats.retries += 1
                self._count("retries")
                ready = time.monotonic() + self.policy.backoff(attempt)
                heapq.heappush(queue, _Pending(ready, seq, spec, attempt))
                seq += 1

            def reap(shard: _Shard, why: str, adopted: bool) -> None:
                """Remove a dead/hung shard, re-queueing its job."""
                nonlocal respawns
                spec, attempt = shard.spec, shard.attempt
                shard.conn.close()
                if shard.proc.is_alive():
                    shard.proc.kill()
                shard.proc.join(timeout=5.0)
                shards.remove(shard)
                if spec is not None:
                    if adopted:
                        self.stats.adoptions += 1
                        self._count("adoptions")
                        self._adopted_jobs[spec.job_id] = (
                            self._adopted_jobs.get(spec.job_id, 0) + 1
                        )
                    requeue(spec, attempt + 1, why)
                outstanding = len(queue) + sum(
                    1 for s in shards if s.spec is not None
                )
                if (
                    outstanding > len(shards)
                    and respawns < self.max_respawns
                    and not failures
                ):
                    respawns += 1
                    self.stats.respawns += 1
                    self._count("respawns")
                    shards.append(self._spawn(ctx))

            def finish(shard: _Shard, msg) -> None:
                kind = msg[0]
                spec, attempt = shard.spec, shard.attempt
                started = shard.started
                shard.spec, shard.deadline, shard.started = None, None, None
                if kind == "ok":
                    _, job_id, result, events, metrics = msg
                    results[job_id] = result
                    aux[job_id] = (events, metrics)
                    self.stats.done += 1
                    self._count("done")
                    elapsed = (
                        time.monotonic() - started
                        if started is not None else 0.0
                    )
                    self._checkpoint(
                        spec, attempt, result, events, metrics, elapsed
                    )
                else:
                    _, job_id, text, tb, exc_bytes, events, metrics = msg
                    aux[job_id] = (events, metrics)
                    cause = None
                    if exc_bytes is not None:
                        try:
                            cause = pickle.loads(exc_bytes)
                        except Exception:
                            cause = None
                    self.stats.failed += 1
                    self._journal_failure(spec, text)
                    failures.append(self._failure(
                        spec, "raised in its worker", tb or text,
                        cause=cause,
                    ))

            while True:
                now = time.monotonic()
                busy = [s for s in shards if s.spec is not None]
                idle = [s for s in shards if s.spec is None]
                gauge = self._m.get("queue_depth")
                if gauge is not None:
                    gauge.set(len(queue) + len(busy))
                # Dispatch every ready job onto an idle shard.
                stop_dispatch = bool(failures)
                while (queue and idle and not stop_dispatch
                       and queue[0].ready_at <= now):
                    item = heapq.heappop(queue)
                    shard = idle.pop()
                    shard.spec = item.spec
                    shard.attempt = item.attempt
                    shard.started = now
                    shard.deadline = (
                        now + self.job_timeout
                        if self.job_timeout is not None else None
                    )
                    try:
                        shard.conn.send(
                            (item.spec.job_id, item.spec.fn, item.spec.arg)
                        )
                        busy.append(shard)
                    except (OSError, ValueError, BrokenPipeError) as exc:
                        shard.spec = None
                        reap(shard, f"shard died at dispatch: {exc}",
                             adopted=False)
                        heapq.heappush(queue, item)
                        idle = [s for s in shards if s.spec is None]
                if stop_dispatch:
                    queue = []
                if not busy and not queue:
                    break
                if not shards:
                    # Pool exhausted; degrade to inline execution of
                    # whatever is left.
                    remaining = [
                        p.spec for p in sorted(queue)
                        if p.spec.job_id not in results
                    ]
                    queue = []
                    self._run_inline(
                        remaining, results, aux, failures, degraded=True
                    )
                    break
                if not busy:
                    # Only backoff-delayed jobs remain.
                    time.sleep(
                        min(max(queue[0].ready_at - now, 0.0), 0.5)
                    )
                    continue
                # Wait for completions, deaths (EOF), or the next
                # deadline/backoff expiry.
                timeout = 0.25
                deadlines = [
                    s.deadline for s in busy if s.deadline is not None
                ]
                if deadlines:
                    timeout = min(timeout, max(min(deadlines) - now, 0.0))
                if queue:
                    timeout = min(
                        timeout, max(queue[0].ready_at - now, 0.0)
                    )
                ready = conn_wait(
                    [s.conn for s in busy], timeout=timeout
                )
                by_conn = {s.conn: s for s in busy}
                for conn in ready:
                    shard = by_conn[conn]
                    try:
                        msg = conn.recv()
                    except (EOFError, OSError):
                        reap(
                            shard,
                            f"worker pid {shard.proc.pid} died "
                            f"(exitcode {shard.proc.exitcode})",
                            adopted=True,
                        )
                        continue
                    finish(shard, msg)
                now = time.monotonic()
                for shard in list(shards):
                    if shard.spec is not None and shard.deadline is not None \
                            and now > shard.deadline:
                        self.stats.timeouts += 1
                        self._count("timeouts")
                        reap(
                            shard,
                            f"timed out after {self.job_timeout:.1f}s "
                            f"(worker pid {shard.proc.pid} killed)",
                            adopted=False,
                        )
                    elif not shard.proc.is_alive():
                        # Death between messages (idle shard, or busy
                        # one whose EOF has not surfaced yet) — recv
                        # any final message first, then reap.
                        if shard.spec is not None and shard.conn.poll(0):
                            try:
                                finish(shard, shard.conn.recv())
                            except (EOFError, OSError):
                                pass
                        if shard.spec is not None:
                            reap(
                                shard,
                                f"worker pid {shard.proc.pid} died "
                                f"(exitcode {shard.proc.exitcode})",
                                adopted=True,
                            )
                        else:
                            reap(shard, "idle worker died", adopted=False)
        finally:
            for shard in shards:
                try:
                    shard.conn.send(None)
                except Exception:
                    pass
            for shard in shards:
                shard.proc.join(timeout=2.0)
                if shard.proc.is_alive():
                    shard.proc.kill()
                    shard.proc.join(timeout=5.0)
                shard.conn.close()
