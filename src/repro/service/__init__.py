"""Sharded, checkpointed, resumable job scheduling for sweeps.

The experiment-as-a-service layer (DESIGN.md §14): sweeps are
decomposed into jobs with deterministic ids
(:mod:`~repro.service.job`), executed by a supervised worker pool with
retry/timeout budgets and dead-worker adoption
(:mod:`~repro.service.scheduler`), and checkpointed to an append-only
fsync'd JSON-lines journal (:mod:`~repro.service.journal`) so an
interrupted sweep resumes bit-identically.  The user-facing entry
points are :mod:`repro.harness.parallel` (which routes through this
package), ``python -m repro.tools.experiment ... --journal DIR`` for a
resumable sweep and ``python -m repro.tools.bench_report --partial
DIR`` for its progress.
"""

from repro.service.job import JobSpec, job_id, make_job, repro_command
from repro.service.journal import Journal, get_active_state_dir, journal_in
from repro.service.scheduler import Scheduler, SchedulerStats

__all__ = [
    "JobSpec",
    "Journal",
    "Scheduler",
    "SchedulerStats",
    "get_active_state_dir",
    "job_id",
    "journal_in",
    "make_job",
    "repro_command",
]
