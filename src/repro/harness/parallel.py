"""Process-parallel sample execution for experiment sweeps.

Every figure in the paper is a sweep (writer counts x transports x
interference conditions x samples), and every sample is an independent
simulation fully determined by its derived seed — embarrassingly
parallel work.  This module decomposes a sweep into jobs and hands
them to the :mod:`repro.service` scheduler (supervised worker shards,
per-job timeouts, capped retries, dead-worker adoption, checkpointed
journal), while keeping results **bit-for-bit identical** to serial
execution:

* the per-sample seed derivation is exactly
  :func:`repro.harness.experiment.sample_seed` — the same integers in
  the same order;
* results are returned in submission order regardless of completion
  order, retries, or worker deaths;
* each sample builds its own machine from its seed (that was already
  the contract), so no state crosses process boundaries;
* a resumed sweep restores completed jobs from the journal (the
  pickled originals) and recomputes only the rest from their
  pre-derived seeds, so crash/resume preserves the same contract.

Job count resolution, in priority order: the explicit ``jobs``
argument, the ``REPRO_JOBS`` environment variable (``0`` means "all
cores"), else serial.  ``--jobs N`` on ``repro.tools.experiment`` and
on the benchmark suite sets ``REPRO_JOBS`` for everything below it.

Checkpointing engages when a journal state directory is active:
either ``REPRO_JOURNAL=DIR`` in the environment (set by ``--journal``
on the experiment CLI and benchmark suite, and by ``repro.tools.serve``)
or an explicit :func:`repro.harness.experiment.checkpoint_to` block.
With a journal active even serial execution routes through the
scheduler so every completed cell survives a crash.  ``REPRO_JOB_TIMEOUT``
(seconds) and ``REPRO_JOB_RETRIES`` tune the per-job wall-clock budget
and the retry cap for crashed/hung workers.

Tracing and telemetry go through the instrumentation session
(:mod:`repro.session`): while one is active, every job — in a worker,
inline in the scheduler, or on the plain serial path — runs under
:func:`repro.session.isolate`, and the parent absorbs each job's
``(events, snapshot)`` in submission order.  Serial, pooled and resumed
sweeps therefore record the same trace and the same metrics (bar the
scheduler's own ``sched.*`` counters).  Instrumentation buffers are
journaled alongside results, so a resumed traced sweep is traced like
an uninterrupted one.

Functions submitted to the pool must be picklable (module-level
functions or :func:`functools.partial` over them — not closures).  A
non-picklable function falls back to plain serial execution (no pool,
no journal) with a ``RuntimeWarning`` so a sweep never breaks, it just
stops being parallel and resumable.

A job that raises in its worker fails the sweep with a
:class:`~repro.errors.JobFailure` naming the cell label and
``sample_seed`` plus a ready-to-paste reproduction one-liner — a
worker failure is never an anonymous ``BrokenProcessPool``.
"""

from __future__ import annotations

import os
import pickle
import warnings
from typing import Callable, List, Optional, Sequence, TypeVar

__all__ = ["parallel_map", "resolve_jobs", "run_samples"]

T = TypeVar("T")
U = TypeVar("U")


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Worker count to use: explicit *jobs*, else ``REPRO_JOBS``, else 1.

    ``0`` (or any negative value) means "one worker per CPU core".
    """
    if jobs is None:
        env = os.environ.get("REPRO_JOBS", "").strip()
        if not env:
            return 1
        try:
            jobs = int(env)
        except ValueError:
            raise ValueError(
                f"REPRO_JOBS must be an integer, got {env!r}"
            ) from None
    if jobs <= 0:
        jobs = os.cpu_count() or 1
    return jobs


def _env_float(name: str) -> Optional[float]:
    raw = os.environ.get(name, "").strip()
    if not raw:
        return None
    try:
        return float(raw)
    except ValueError:
        raise ValueError(f"{name} must be a number, got {raw!r}") from None


def _env_int(name: str) -> Optional[int]:
    raw = os.environ.get(name, "").strip()
    if not raw:
        return None
    try:
        return int(raw)
    except ValueError:
        raise ValueError(
            f"{name} must be an integer, got {raw!r}"
        ) from None


def _serial(fn: Callable[[T], U], items: List[T]) -> List[U]:
    """In-process map; each job isolated while a session is active."""
    from repro.session import active_session, isolate

    session = active_session()
    if session is None:
        return [fn(x) for x in items]
    out = []
    for x in items:
        result, error, events, snapshot = isolate(fn, x)
        session.absorb(events, snapshot)
        if error is not None:
            raise error
        out.append(result)
    return out


def parallel_map(
    fn: Callable[[T], U],
    items: Sequence[T],
    jobs: Optional[int] = None,
    label: Optional[str] = None,
) -> List[U]:
    """``[fn(x) for x in items]``, scheduled over worker shards.

    Order-stable: result *i* corresponds to ``items[i]`` no matter
    which worker finished first (or died and had its job adopted).
    With ``jobs == 1`` (the default when ``REPRO_JOBS`` is unset) and
    no active journal, no scheduler is created and, with no
    instrumentation session active, this *is* the list comprehension.
    A non-picklable *fn* (closure, lambda, bound local) triggers a
    plain serial fallback with a ``RuntimeWarning``.

    *label* names the sweep cell in journals, progress output, and
    failure messages (falling back to the function's qualified name).
    """
    from repro.service.journal import get_active_state_dir

    n_jobs = resolve_jobs(jobs)
    items = list(items)
    state_dir = get_active_state_dir()
    if state_dir is None and (n_jobs <= 1 or len(items) <= 1):
        return _serial(fn, items)

    try:
        pickle.dumps(fn)
    except Exception as exc:
        warnings.warn(
            f"parallel_map: {fn!r} is not picklable ({exc}); "
            "running serially.  Pass a module-level function or a "
            "functools.partial over one to enable process parallelism "
            "and journal checkpointing.",
            RuntimeWarning,
            stacklevel=2,
        )
        return _serial(fn, items)

    from repro.service.job import describe_fn, make_job
    from repro.service.journal import journal_in
    from repro.service.scheduler import Scheduler, get_progress_hook

    base_label = label if label is not None else describe_fn(fn)[0]
    specs = [
        make_job(fn, x, label=base_label, index=i)
        for i, x in enumerate(items)
    ]
    policy = None
    retries = _env_int("REPRO_JOB_RETRIES")
    if retries is not None:
        from repro.faults import RetryPolicy

        policy = RetryPolicy(max_retries=retries)
    scheduler = Scheduler(
        n_workers=n_jobs,
        policy=policy,
        job_timeout=_env_float("REPRO_JOB_TIMEOUT"),
        journal=journal_in(state_dir) if state_dir else None,
        progress=get_progress_hook(),
    )
    return scheduler.run(specs, label=base_label)


def run_samples(
    fn: Callable[[int], T],
    n_samples: int,
    base_seed: int = 0,
    jobs: Optional[int] = None,
    label: Optional[str] = None,
) -> List[T]:
    """Run ``fn(seed)`` for each of *n_samples* derived seeds.

    The scheduled twin of the serial harness entry point: seeds come
    from :func:`repro.harness.experiment.sample_seed` (identical
    integers in identical order) and the output list is ordered by
    sample index, so serial, parallel, and crash-resumed execution are
    indistinguishable from the results.
    """
    from repro.harness.experiment import sample_seed

    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    seeds = [sample_seed(base_seed, i) for i in range(n_samples)]
    return parallel_map(fn, seeds, jobs=jobs, label=label)
