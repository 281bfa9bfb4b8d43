"""Daemon + client CLI for resumable, checkpointed benchmark sweeps.

Usage::

    # daemon: run artifacts with every sweep cell checkpointed
    python -m repro.tools.serve run fig1 fig3 --state-dir sweep_state \\
        --scale small --jobs 4 --out results.json

    # client: inspect a live (or crashed) run's progress
    python -m repro.tools.serve status --state-dir sweep_state

``run`` executes the requested artifacts through the
:mod:`repro.service` scheduler: completed jobs land in
``STATE_DIR/journal.jsonl`` (append-only JSON-lines, fsync per
record), live progress lands in ``STATE_DIR/status.json``, and the
run's parameters in ``STATE_DIR/manifest.json``.  Kill the daemon at
any point — SIGKILL included — and re-running the *same* command
resumes from the journal: finished cells are restored bit-identically
(the pickled originals), only the remainder recomputes.  Worker
deaths, per-job timeouts, and retry budgets are handled by the
scheduler; when the pool is exhausted the sweep degrades to inline
serial execution rather than dying (see DESIGN.md §14).

``status`` is read-only and safe to run while the daemon is live: it
replays the journal and renders per-cell done/pending/retried/adopted/failed
counts plus whatever the daemon last wrote to ``status.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Dict, List, Optional

from repro.harness.experiment import Scale

__all__ = ["main", "build_parser"]

MANIFEST_NAME = "manifest.json"
STATUS_NAME = "status.json"


def _write_json_atomic(path: str, payload: dict) -> None:
    """Write *payload* so readers never observe a half-written file."""
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)


def _read_json(path: str) -> Optional[dict]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


class _StatusWriter:
    """Progress hook: mirrors scheduler stats into ``status.json``.

    Installed process-wide (see
    :func:`repro.service.scheduler.set_progress_hook`) so every nested
    ``run_samples`` batch under the daemon reports in.  Writes are
    atomic and throttled; a batch's final state (all jobs accounted
    for) is always flushed so ``status`` never undercounts a finished
    cell by more than the throttle window.
    """

    def __init__(self, state_dir: str, throttle: float = 0.2):
        self.path = os.path.join(state_dir, STATUS_NAME)
        self.throttle = throttle
        self.state = "running"
        self.artifact = ""
        self.batches: Dict[str, dict] = {}
        self._last_write = 0.0

    def __call__(self, stats) -> None:
        label = stats.label or "?"
        self.batches[label] = {
            "jobs": stats.jobs,
            "done": stats.done,
            "restored": stats.restored,
            "failed": stats.failed,
            "retries": stats.retries,
            "adoptions": stats.adoptions,
            "timeouts": stats.timeouts,
            "respawns": stats.respawns,
            "serial_fallback": stats.serial_fallback,
        }
        final = stats.done + stats.restored + stats.failed >= stats.jobs
        now = time.monotonic()
        if final or now - self._last_write >= self.throttle:
            self._last_write = now
            self.flush()

    def totals(self) -> dict:
        out = {
            k: sum(b[k] for b in self.batches.values())
            for k in ("jobs", "done", "restored", "failed", "retries",
                      "adoptions", "timeouts", "respawns")
        }
        out["batches"] = len(self.batches)
        return out

    def flush(self, state: Optional[str] = None,
              extra: Optional[dict] = None) -> None:
        if state is not None:
            self.state = state
        payload = {
            "state": self.state,
            "artifact": self.artifact,
            "pid": os.getpid(),
            "updated_unix": time.time(),
            "totals": self.totals(),
            "batches": self.batches,
        }
        if extra:
            payload.update(extra)
        _write_json_atomic(self.path, payload)


def _check_manifest(state_dir: str, names: List[str], scale: str,
                    seed: int) -> None:
    """Create or validate ``manifest.json`` for a (re)run.

    Job ids hash the cell's spec and seed, so resuming with a
    different scale or seed would not *corrupt* anything — it would
    silently recompute everything while looking like a resume.  That
    is always a mistake, so mismatches are rejected with a pointer at
    a fresh state dir.
    """
    path = os.path.join(state_dir, MANIFEST_NAME)
    manifest = _read_json(path)
    if manifest is None:
        _write_json_atomic(path, {
            "artifacts": names,
            "scale": scale,
            "seed": seed,
            "created_unix": time.time(),
        })
        return
    for key, value in (("scale", scale), ("seed", seed)):
        if manifest.get(key) != value:
            raise SystemExit(
                f"error: state dir {state_dir!r} was created with "
                f"{key}={manifest.get(key)!r} but this run asks for "
                f"{value!r}; resuming would recompute every cell. "
                "Use a fresh --state-dir (or delete this one)."
            )
    if sorted(manifest.get("artifacts", [])) != sorted(names):
        # Differing artifact lists are fine (ids are per-cell); keep
        # the manifest's list current for `status`.
        merged = sorted(set(manifest.get("artifacts", [])) | set(names))
        manifest["artifacts"] = merged
        _write_json_atomic(path, manifest)


def _run(args) -> int:
    from repro.tools.experiment import (
        ARTIFACTS,
        artifact_failures,
        run_artifact,
    )

    names = (
        sorted(ARTIFACTS)
        if "all" in args.artifact
        else list(dict.fromkeys(args.artifact))
    )
    unknown = [n for n in names if n not in ARTIFACTS]
    if unknown:
        raise SystemExit(
            f"error: unknown artifact(s) {', '.join(unknown)}; "
            f"choose from {', '.join(sorted(ARTIFACTS))} or 'all'"
        )
    state_dir = args.state_dir
    os.makedirs(state_dir, exist_ok=True)
    _check_manifest(state_dir, names, args.scale, args.seed)

    os.environ["REPRO_JOURNAL"] = state_dir
    if args.serial:
        os.environ["REPRO_JOBS"] = "1"
    elif args.jobs is not None:
        os.environ["REPRO_JOBS"] = str(args.jobs)
    if args.job_timeout is not None:
        os.environ["REPRO_JOB_TIMEOUT"] = str(args.job_timeout)
    if args.max_retries is not None:
        os.environ["REPRO_JOB_RETRIES"] = str(args.max_retries)

    from repro.service.scheduler import set_progress_hook

    status = _StatusWriter(state_dir)
    status.flush(state="running")
    set_progress_hook(status)

    out: Dict[str, dict] = {}
    failures: List[str] = []
    code = 0
    try:
        for name in names:
            status.artifact = name
            status.flush()
            print(f"[serve] {name} @ {args.scale}, seed {args.seed} ...",
                  flush=True)
            start = time.time()
            try:
                result = run_artifact(
                    name, Scale.parse(args.scale), args.seed
                )
            except Exception as exc:
                failures.append(f"{name}: {exc}")
                out[name] = {"ok": False, "error": str(exc)}
                print(f"[serve] {name}: FAILED\n{exc}", file=sys.stderr,
                      flush=True)
                if args.fail_fast:
                    break
                continue
            elapsed = time.time() - start
            degraded = artifact_failures(result)
            failures.extend(f"{name}: {d}" for d in degraded)
            to_dict = getattr(result, "to_dict", None)
            out[name] = {
                "ok": not degraded,
                "elapsed": round(elapsed, 3),
                "degraded_cells": degraded,
                "data": to_dict() if callable(to_dict) else None,
            }
            print(result.render(), flush=True)
            print(f"[serve] {name}: done in {elapsed:.1f}s", flush=True)
            if degraded and args.fail_fast:
                break
    except KeyboardInterrupt:
        status.flush(state="interrupted")
        print("[serve] interrupted; journal is resumable — rerun the "
              "same command to continue", file=sys.stderr)
        return 130
    finally:
        set_progress_hook(None)

    code = 1 if failures else 0
    status.flush(
        state="failed" if failures else "done",
        extra={"failures": failures},
    )
    if args.out:
        _write_json_atomic(args.out, {
            "scale": args.scale,
            "seed": args.seed,
            "state_dir": state_dir,
            "artifacts": out,
            "failures": failures,
        })
        print(f"[serve] results -> {args.out}", flush=True)
    if failures:
        print(f"[serve] {len(failures)} failure(s)", file=sys.stderr)
    return code


def _fmt_seconds(s: float) -> str:
    return f"{s:.1f}s" if s < 120 else f"{s / 60:.1f}m"


def _status(args) -> int:
    from repro.harness.report import format_table
    from repro.service.journal import summarize

    state_dir = args.state_dir
    summary = summarize(state_dir)
    manifest = _read_json(os.path.join(state_dir, MANIFEST_NAME))
    live = _read_json(os.path.join(state_dir, STATUS_NAME))
    if args.json:
        print(json.dumps(
            {"manifest": manifest, "status": live, "journal": summary},
            indent=2, sort_keys=True,
        ))
        return 0
    if manifest:
        print(
            f"sweep: {' '.join(manifest.get('artifacts', []))} "
            f"@ {manifest.get('scale')}, seed {manifest.get('seed')}"
        )
    if live:
        print(f"daemon: {live.get('state')} "
              f"(pid {live.get('pid')}, artifact "
              f"{live.get('artifact') or '-'})")
    totals = summary["totals"]
    if not summary["labels"]:
        print(f"no journal in {state_dir!r} yet")
        return 0
    rows = []
    for label in sorted(summary["labels"]):
        c = summary["labels"][label]
        rows.append((
            label, int(c["planned"]), int(c["done"]), int(c["pending"]),
            int(c["retried"]), int(c.get("adopted", 0)),
            int(c["failed"]),
            _fmt_seconds(c["elapsed"]),
        ))
    print(format_table(
        ["cell", "planned", "done", "pending", "retried", "adopted",
         "failed", "elapsed"],
        rows,
        title=f"journal @ {state_dir}",
    ))
    print(
        f"\n{totals['done']}/{totals['planned']} jobs done, "
        f"{totals['pending']} pending, {totals['retried']} retried, "
        f"{totals.get('adopted', 0)} adopted, "
        f"{totals['failed']} failed; journal "
        f"{totals['journal_bytes']} bytes"
        + (f" ({totals['discarded_lines']} corrupt line(s) ignored)"
           if totals["discarded_lines"] else "")
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.tools.serve",
        description=(
            "Resumable benchmark-sweep daemon: run paper artifacts "
            "with every sweep cell checkpointed to a journal, and "
            "inspect progress from another terminal."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser(
        "run",
        help="run artifacts under the checkpointing scheduler "
        "(rerun the same command to resume after any crash)",
    )
    run.add_argument(
        "artifact", nargs="+",
        help="artifact names (see repro.tools.experiment) or 'all'",
    )
    run.add_argument(
        "--state-dir", required=True, metavar="DIR",
        help="journal/manifest/status directory; the resume token",
    )
    run.add_argument(
        "--scale", default="small", choices=[s.value for s in Scale],
        help="experiment size preset (default: small)",
    )
    run.add_argument(
        "--seed", type=int, default=0, help="base random seed"
    )
    run.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="worker processes (0 = all cores; default: REPRO_JOBS, "
        "else serial)",
    )
    run.add_argument(
        "--serial", action="store_true",
        help="force inline execution (no worker pool); still "
        "checkpoints and resumes",
    )
    run.add_argument(
        "--job-timeout", type=float, default=None, metavar="SEC",
        help="per-job wall-clock budget; a job past it is killed and "
        "retried (default: unbounded)",
    )
    run.add_argument(
        "--max-retries", type=int, default=None, metavar="N",
        help="retry budget per job for crashes/timeouts (default: "
        "the fault subsystem's RetryPolicy, 3)",
    )
    run.add_argument(
        "--out", metavar="PATH", default=None,
        help="write final machine-readable results JSON here",
    )
    run.add_argument(
        "--fail-fast", action="store_true",
        help="stop at the first failing artifact",
    )
    run.set_defaults(fn=_run)

    status = sub.add_parser(
        "status",
        help="render a state dir's journal progress (read-only; safe "
        "while the daemon runs)",
    )
    status.add_argument(
        "--state-dir", required=True, metavar="DIR",
        help="the daemon's --state-dir",
    )
    status.add_argument(
        "--json", action="store_true",
        help="dump manifest + live status + journal summary as JSON",
    )
    status.set_defaults(fn=_status)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
