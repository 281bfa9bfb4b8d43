"""CLI: regenerate a paper artifact.

Usage::

    python -m repro.tools.experiment fig1 --scale small --seed 0
    python -m repro.tools.experiment table1 --scale paper
    python -m repro.tools.experiment all --scale smoke --fail-fast

Exit status is nonzero when any cell fails: a raised error in a sweep
cell (reported with the cell's label and ``sample_seed`` so it can be
reproduced with a one-liner) **or** a rendered-but-degraded artifact —
a result whose ``failure_report()`` names cells that absorbed a
``TransportError``-aborted partial output.  ``--fail-fast`` stops at
the first failing artifact instead of rendering the rest.

``--journal DIR`` makes the run a resumable sweep: every completed
cell is checkpointed to ``DIR/journal.jsonl`` (append-only JSON-lines,
fsync per record), and rerunning the same command after any crash,
SIGKILL included, restores the finished cells bit-identically and
recomputes only the rest (see DESIGN.md §14).  ``DIR/manifest.json``
pins the sweep's scale and seed; a rerun asking for others exits
rather than recompute every cell while looking like a resume.  An
inherited ``REPRO_JOURNAL=DIR`` is the same as ``--journal DIR``.
``python -m repro.tools.bench_report --partial DIR`` renders a live or
interrupted sweep's progress.  ``REPRO_JOB_TIMEOUT`` (seconds) and
``REPRO_JOB_RETRIES`` set the per-job wall-clock budget and the retry
cap for crashed or hung workers.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import Callable, Dict

from repro.harness.experiment import Scale, metrics_to, trace_to
from repro.service.journal import get_active_state_dir, open_sweep

__all__ = ["main", "ARTIFACTS", "artifact_failures", "run_artifact"]


def _fig1(scale, seed):
    from repro.harness.figures import fig1

    return fig1.run(scale, seed)


def _table1(scale, seed):
    from repro.harness.figures import table1

    return table1.run(scale, seed)


def _fig2(scale, seed):
    from repro.harness.figures import fig2

    return fig2.run(scale, seed)


def _fig3(scale, seed):
    from repro.harness.figures import fig3

    return fig3.run(scale, seed)


def _fig5(scale, seed):
    from repro.harness.figures import fig5

    return fig5.run(scale, seed)


def _fig6(scale, seed):
    from repro.harness.figures import fig6

    return fig6.run(scale, seed)


def _fig7(scale, seed):
    from repro.harness.figures import fig7

    return fig7.run(scale, seed)


def _resilience(scale, seed):
    from repro.harness.figures import resilience

    return resilience.run(scale, seed)


def _qos(scale, seed):
    from repro.harness.figures import qos

    return qos.run(scale, seed)


#: name -> callable returning the artifact's *result object*, rendered
#: with ``.render()``.  Most results give a machine-readable payload
#: via ``.to_dict()``; fig5, fig6 and fig7 give theirs per
#: ``SweepResult``, on ``.panels``, ``.sweep`` and ``.sweeps``.
ARTIFACTS: Dict[str, Callable] = {
    "fig1": _fig1,
    "table1": _table1,
    "fig2": _fig2,
    "fig3": _fig3,
    "fig5": _fig5,
    "fig6": _fig6,
    "fig7": _fig7,
    "resilience": _resilience,
    "qos": _qos,
}

#: Artifacts that pair each faulted run with a fault-free baseline and
#: build their own plans; they run with ``REPRO_FAULTS`` unset.
OWN_FAULT_PLANS = frozenset({"resilience", "qos"})


def run_artifact(name: str, scale: Scale, seed: int):
    """Run artifact ``name`` and return its result object.

    An artifact in :data:`OWN_FAULT_PLANS` runs with ``REPRO_FAULTS``
    hidden, so an inherited plan cannot reach its fault-free baseline;
    the variable is restored afterwards, even if the artifact raises.
    """
    hidden = (os.environ.pop("REPRO_FAULTS", None)
              if name in OWN_FAULT_PLANS else None)
    try:
        return ARTIFACTS[name](scale, seed)
    finally:
        if hidden is not None:
            os.environ["REPRO_FAULTS"] = hidden


def artifact_failures(result) -> list:
    """Failure strings a rendered result self-reports (else empty).

    Results may expose ``failure_report() -> list[str]`` naming cells
    that only *look* complete — e.g. a method that absorbed a
    ``TransportError`` partial output into its table.  Absence of the
    protocol means nothing to report.
    """
    report = getattr(result, "failure_report", None)
    if not callable(report):
        return []
    return [str(x) for x in report()]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.tools.experiment",
        description=(
            "Regenerate a table or figure from 'Managing Variability in "
            "the IO Performance of Petascale Storage Systems' (SC'10)."
        ),
    )
    parser.add_argument(
        "artifact",
        choices=sorted(ARTIFACTS) + ["all"],
        help="which paper artifact to regenerate",
    )
    parser.add_argument(
        "--scale",
        default="small",
        choices=[s.value for s in Scale],
        help="experiment size preset (default: small)",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="base random seed"
    )
    parser.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="worker processes for sample fan-out (0 = all cores; "
        "default: REPRO_JOBS, else serial).  Results are bit-identical "
        "to serial runs",
    )
    parser.add_argument(
        "--journal", metavar="DIR", default=None,
        help="checkpoint every completed sweep cell to DIR (append-only "
        "JSON-lines journal; rerunning the same command resumes from "
        "it, bit-identically; a rerun with another --scale or --seed "
        "is rejected).  Watch progress with repro.tools.bench_report "
        "--partial DIR",
    )
    parser.add_argument(
        "--fail-fast", action="store_true",
        help="stop at the first failing artifact instead of rendering "
        "the remaining ones (exit status is nonzero on any failure "
        "either way)",
    )
    parser.add_argument(
        "--trace", metavar="PATH", default=None,
        help="export a Chrome trace-event JSON of every simulation "
        "run (open in Perfetto; summarize with repro.tools.trace)",
    )
    parser.add_argument(
        "--metrics", metavar="PATH", default=None,
        help="export a telemetry JSON snapshot of every simulation run "
        "(per-OST time series, fabric/transport counters, straggler "
        "flags; render with repro.tools.monitor --dashboard).  "
        "Collection is non-perturbing: results are bit-identical "
        "with or without it",
    )
    parser.add_argument(
        "--faults", metavar="PATH", default=None,
        help="inject faults from a FaultPlan JSON into every "
        "simulation run (equivalent to setting REPRO_FAULTS; the "
        "resilience and qos artifacts build their own plans and "
        "ignore this)",
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.jobs is not None:
        # Propagate via the environment so every run_samples call below
        # (and in any worker-side nesting) picks the same job count up.
        os.environ["REPRO_JOBS"] = str(args.jobs)
    names = sorted(ARTIFACTS) if args.artifact == "all" else [args.artifact]
    state_dir = args.journal or get_active_state_dir()
    if state_dir is not None:
        open_sweep(state_dir, names, args.scale, args.seed)
    if args.faults is not None:
        # Same propagation trick: machine builds (local and in worker
        # processes) resolve REPRO_FAULTS when no explicit plan is set.
        from repro.faults import FaultPlan

        FaultPlan.from_json(args.faults)  # fail fast on a bad plan
        os.environ["REPRO_FAULTS"] = args.faults

    failures = []

    def run_all() -> None:
        for name in names:
            start = time.time()
            try:
                result = run_artifact(name, Scale.parse(args.scale),
                                      args.seed)
            except Exception as exc:
                failures.append(f"{name}: {exc}")
                print(f"[{name} @ {args.scale}, seed {args.seed}: "
                      f"FAILED]\n{exc}\n", file=sys.stderr)
                if args.fail_fast:
                    return
                continue
            elapsed = time.time() - start
            print(result.render())
            print(f"\n[{name} @ {args.scale}, seed {args.seed}: "
                  f"{elapsed:.1f}s wall]\n")
            degraded = artifact_failures(result)
            if degraded:
                failures.extend(f"{name}: {d}" for d in degraded)
                print(
                    f"[{name}: {len(degraded)} cell(s) absorbed a "
                    "partial/aborted result:]\n  "
                    + "\n  ".join(degraded),
                    file=sys.stderr,
                )
                if args.fail_fast:
                    return

    from contextlib import ExitStack

    with ExitStack() as stack:
        tracer = registry = None
        if args.trace:
            tracer = stack.enter_context(trace_to(args.trace))
        if args.metrics:
            registry = stack.enter_context(metrics_to(args.metrics))
        run_all()
    if tracer is not None:
        print(f"[trace: {len(tracer.events)} events -> {args.trace}]")
    if registry is not None:
        print(f"[metrics: {len(registry)} instruments over "
              f"{registry.n_runs} run(s) -> {args.metrics}]")
    if failures:
        print(f"[{len(failures)} failure(s)]", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
