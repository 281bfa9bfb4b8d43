"""CLI: run (or load) a telemetry snapshot and render observability
artifacts — an HTML dashboard, a Prometheus text export, a JSON dump,
and the self-profiler's flame table.

Two sources:

* ``--from-json metrics.json`` — a snapshot produced earlier (e.g. by
  ``repro.tools.experiment --metrics``); monitor just renders it.
* no ``--from-json`` — run a live demonstration cell: one transport
  writing a real app's output while a background job hammers a
  minority of the storage targets, the exact scenario the straggler
  detector exists for.  The flagged set is checked against the
  interference plan's ground truth and reported.

Usage::

    python -m repro.tools.monitor --dashboard out.html
    python -m repro.tools.monitor --dashboard out.html --profile \\
        --transport adaptive --procs 64
    python -m repro.tools.monitor --from-json metrics.json \\
        --dashboard out.html --prometheus out.prom
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable, Dict, Optional

from repro.apps.base import AppKernel

__all__ = ["main", "run_demo_cell"]

APPS: Dict[str, Callable[[], AppKernel]] = {}


def _apps() -> Dict[str, Callable[[], AppKernel]]:
    if not APPS:
        from repro.apps.gtc import gtc
        from repro.apps.pixie3d import pixie3d
        from repro.apps.s3d import s3d
        from repro.apps.xgc1 import xgc1

        APPS.update(
            {"xgc1": xgc1, "gtc": gtc, "s3d": s3d, "pixie3d": pixie3d}
        )
    return APPS


def run_demo_cell(
    app_name: str = "gtc",
    transport_name: str = "adaptive",
    n_procs: int = 128,
    pool_osts: int = 32,
    interfere_osts: int = 6,
    seed: int = 0,
    profile: bool = False,
):
    """One interference cell under full telemetry.

    Returns ``(registry, detector, ground_truth, profile_dict)``.
    ``interfere_osts`` must stay a *minority* of the pool: the robust
    z-score baselines on the pool median, and a majority of interfered
    targets would drag the median down to their level.
    """
    from repro.core.middleware import Adios
    from repro.interference import BackgroundWriterJob
    from repro.machines import jaguar
    from repro.session import instrumented
    from repro.telemetry import MetricsRegistry, profiling
    from repro.units import GB

    if not 0 <= interfere_osts <= pool_osts // 2:
        raise SystemExit(
            f"--interfere-osts must be at most half the pool "
            f"({pool_osts // 2}); the detector baselines on the median"
        )
    reg = MetricsRegistry()
    spec = jaguar(n_osts=pool_osts).with_overrides(
        max_stripe_count=max(4, pool_osts // 4)
    )
    with instrumented(registry=reg):
        machine = spec.build(
            n_ranks=n_procs,
            seed=seed,
            extra_service_nodes=2 if interfere_osts else 0,
        )
    ground_truth = list(range(interfere_osts))
    if interfere_osts:
        BackgroundWriterJob(
            machine,
            n_osts=interfere_osts,
            writers_per_ost=3,
            write_size=1.0 * GB,
        ).start()
    if transport_name == "adaptive":
        options = {"n_osts_used": min(max(pool_osts * 3 // 4, 1), n_procs)}
    else:
        options = {"build_index": False}
    transport = Adios.make_transport(transport_name, **options)
    prof_dict: Optional[dict] = None
    if profile:
        with profiling(machine) as prof:
            transport.run(machine, _apps()[app_name]())
        prof_dict = prof.to_dict()
    else:
        transport.run(machine, _apps()[app_name]())
    detector = machine.monitor.detector
    return reg, detector, ground_truth, prof_dict


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.tools.monitor",
        description="Render telemetry: HTML dashboard, Prometheus "
        "export, straggler report, self-profile.",
    )
    src = parser.add_argument_group("source")
    src.add_argument(
        "--from-json", metavar="PATH", default=None,
        help="render an existing metrics snapshot instead of running "
        "a demonstration cell",
    )
    src.add_argument("--app", default="gtc", choices=sorted(
        ("xgc1", "gtc", "s3d", "pixie3d")))
    src.add_argument("--transport", default="adaptive",
                     choices=("adaptive", "mpiio"))
    src.add_argument("--procs", type=int, default=128)
    src.add_argument("--pool-osts", type=int, default=32)
    src.add_argument(
        "--interfere-osts", type=int, default=6,
        help="background-hammered targets (must be a minority of the "
        "pool; 0 disables interference)",
    )
    src.add_argument("--seed", type=int, default=0)
    src.add_argument(
        "--profile", action="store_true",
        help="attach the wall-clock self-profiler to the demo run",
    )
    out = parser.add_argument_group("outputs")
    out.add_argument("--dashboard", metavar="PATH", default=None,
                     help="write the self-contained HTML dashboard")
    out.add_argument("--json", metavar="PATH", default=None,
                     help="write the metrics snapshot JSON")
    out.add_argument("--prometheus", metavar="PATH", default=None,
                     help="write the Prometheus text exposition")
    out.add_argument("--title", default=None, help="dashboard title")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    profile_dict = None
    detector = None
    ground_truth = None
    if args.from_json:
        with open(args.from_json) as fh:
            snapshot = json.load(fh)
        title = args.title or f"repro telemetry ({args.from_json})"
        registry = None
    else:
        registry, detector, ground_truth, profile_dict = run_demo_cell(
            app_name=args.app,
            transport_name=args.transport,
            n_procs=args.procs,
            pool_osts=args.pool_osts,
            interfere_osts=args.interfere_osts,
            seed=args.seed,
            profile=args.profile,
        )
        snapshot = registry.snapshot()
        title = args.title or (
            f"{args.app}/{args.transport} x{args.procs} on "
            f"{args.pool_osts} OSTs"
            + (f", {args.interfere_osts} interfered"
               if args.interfere_osts else "")
        )

    if detector is not None:
        flagged = sorted(detector.ever_flagged())
        print(f"stragglers flagged: {flagged or 'none'}")
        if ground_truth:
            hits = sorted(set(flagged) & set(ground_truth))
            misses = sorted(set(ground_truth) - set(flagged))
            extra = sorted(set(flagged) - set(ground_truth))
            print(f"ground truth (interfered): {ground_truth}")
            print(f"  detected: {hits or 'none'}; missed: "
                  f"{misses or 'none'}; false alarms: {extra or 'none'}")
    if profile_dict is not None:
        from repro.telemetry.profiler import format_report

        print("\nself-profile:\n" + format_report(profile_dict))

    if args.json:
        with open(args.json, "w") as fh:
            json.dump(snapshot, fh, indent=2, default=float)
        print(f"[metrics -> {args.json}]")
    if args.prometheus:
        if registry is None:
            raise SystemExit(
                "--prometheus needs a live run (the text exposition is "
                "a point-in-time export; use --json for snapshots)"
            )
        with open(args.prometheus, "w") as fh:
            fh.write(registry.to_prometheus())
        print(f"[prometheus -> {args.prometheus}]")
    if args.dashboard:
        from repro.telemetry.dashboard import render_dashboard

        html = render_dashboard(snapshot, profile=profile_dict,
                                title=title)
        with open(args.dashboard, "w") as fh:
            fh.write(html)
        print(f"[dashboard -> {args.dashboard}]")
    if not (args.dashboard or args.json or args.prometheus):
        n = len(snapshot.get("metrics", []))
        print(f"[{n} instruments collected; pass --dashboard/--json/"
              "--prometheus to export]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
