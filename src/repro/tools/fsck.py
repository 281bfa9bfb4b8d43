"""CLI: audit (and repair) a simulated output set end to end.

``repro.tools.fsck`` is the integrity workhorse: it runs one output
operation under an optional corruption fault plan, scrubs every block
of the result against its per-block checksums — rebuilding the global
index from the per-file local indices when the master index is damaged
or withheld — repairs what it can, and verifies the repaired set with
a checksummed read-back of every variable.  The report is
machine-readable JSON (``--json``), and ``--strict`` turns any
undetected corruption, false positive, or failed repair into a
non-zero exit for CI.

Usage::

    python -m repro.tools.fsck --transport adaptive --bitflip 2 --torn 1
    python -m repro.tools.fsck --silent-rate 0.05 --verify-writes --repair
    python -m repro.tools.fsck --faults plan.json --strict --json out.json
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional, Tuple

from repro.apps import AppKernel, Variable
from repro.core.bp import BpReader
from repro.core.middleware import Adios
from repro.core.integrity import (
    BLOCK_UNINDEXED,
    ScrubReport,
    detection_stats,
    rebuild_global_index,
)
from repro.errors import (
    FileNotFoundInNamespace,
    IntegrityError,
    OstFailedError,
    TransportError,
    WriteTimeout,
)
from repro.faults import (
    FaultEvent,
    FaultPlan,
    RetryPolicy,
)
from repro.machines import jaguar
from repro.units import MB

__all__ = ["main", "build_parser", "fsck_run"]


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="python -m repro.tools.fsck",
        description="audit and repair a simulated output set",
    )
    p.add_argument("--transport", default="adaptive",
                   choices=["adaptive", "mpiio", "posix", "splitfiles",
                            "stagger"])
    p.add_argument("--n-ranks", type=int, default=64)
    p.add_argument("--n-osts", type=int, default=16)
    p.add_argument("--cap", type=int, default=4,
                   help="per-file stripe cap (max_stripe_count)")
    p.add_argument("--mb", type=float, default=16.0,
                   help="MB per process")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--faults", metavar="PLAN.json",
                   help="explicit fault plan (overrides --bitflip/...)")
    p.add_argument("--bitflip", type=int, default=0, metavar="N",
                   help="inject N block_bitflip events (one per OST)")
    p.add_argument("--torn", type=int, default=0, metavar="N",
                   help="inject N torn_write events")
    p.add_argument("--stale", type=int, default=0, metavar="N",
                   help="inject N stale_index events")
    p.add_argument("--silent-rate", type=float, default=0.0,
                   help="per-block silent-corruption probability")
    p.add_argument("--at", type=float, default=0.7, metavar="FRAC",
                   help="fire injected events at FRAC of the fault-free "
                        "write time (default 0.7)")
    p.add_argument("--verify-writes", action="store_true",
                   help="arm the adaptive write-verify-rewrite loop")
    p.add_argument("--no-checksums", action="store_true",
                   help="model a checksum-free output set")
    p.add_argument("--rebuild-index", action="store_true",
                   help="discard the global index and rebuild it from "
                        "the per-file local indices before scrubbing")
    p.add_argument("--repair", action="store_true",
                   help="rewrite damaged blocks in place, then re-scrub "
                        "and read back every variable")
    p.add_argument("--json", metavar="PATH",
                   help="write the machine-readable report to PATH")
    p.add_argument("--strict", action="store_true",
                   help="exit non-zero on undetected corruption, false "
                        "positives, or a failed repair")
    return p


def _make_transport(name: str):
    # Every method builds the global index the scrub verifies against;
    # POSIX is the one that needs asking.
    options = {"build_index": True} if name == "posix" else {}
    return Adios.make_transport(name, **options)


def _compose_plan(args, base) -> Optional[FaultPlan]:
    if args.faults:
        plan = FaultPlan.from_json(args.faults)
        if args.verify_writes:
            plan = plan.with_policy(read_back_verify=True)
        return plan
    n_events = args.bitflip + args.torn + args.stale
    if n_events == 0 and args.silent_rate == 0.0 and not args.verify_writes:
        return None
    write_time = base.write_time
    if args.transport == "adaptive":
        # Adaptive serializes writers, so stored blocks accumulate
        # throughout the write phase; --at places corruption inside it.
        at = max(args.at * write_time, 1e-3)
    else:
        # Static transports register stored blocks only as each write
        # *completes* — which all happens near the end of the write
        # phase — so corruption mid-phase would find nothing to rot.
        # Land it just after the write phase, during the flush.
        at = (base.open_time + write_time
              + max(0.25 * base.flush_time, 1e-3))
    events: List[FaultEvent] = []
    ost = 0

    def _spread(kind: str, n: int, factor: float) -> None:
        nonlocal ost
        for _ in range(n):
            events.append(FaultEvent(time=at, kind=kind,
                                     target=ost % args.n_osts,
                                     factor=factor))
            ost += 1

    _spread("block_bitflip", args.bitflip, 1.0)
    _spread("torn_write", args.torn, 1.0)
    _spread("stale_index", args.stale, 1.0)
    return FaultPlan(
        events=tuple(events),
        policy=RetryPolicy(run_timeout=max(120.0, 100.0 * write_time),
                           read_back_verify=args.verify_writes),
        silent_error_rate=args.silent_rate,
    )


def _repair(machine, reader: BpReader, report: ScrubReport) -> Dict:
    """Rewrite every damaged block its index entry can vouch for.

    The index entry carries offset, size and the content checksum, so a
    rewrite through the normal write path restores exactly the block
    the writer produced.  Unindexed blocks have nothing to restore from
    and are garbage-collected instead; blocks on fail-stopped targets
    and files missing from the namespace are unrepairable.
    """
    env = machine.env
    fs = machine.fs
    # Repairs must not themselves rot.
    fs.corrupt_hook = None
    index = reader.index
    if index is None:
        index, _ = rebuild_global_index(fs, reader.files)
    entry_at: Dict[Tuple[str, float, float], object] = {}
    for path, entries in index.entries_by_file().items():
        for e in entries:
            entry_at[(path, e.offset, e.nbytes)] = e
    outcome = {"repaired": 0, "collected": 0, "unrepairable": 0}
    tr = fs.env.tracer

    reopened = []

    def _go():
        for b in report.bad:
            try:
                f = fs.lookup(b.file)
            except FileNotFoundInNamespace:
                outcome["unrepairable"] += 1
                continue
            if b.status == BLOCK_UNINDEXED:
                f.blocks.pop((b.offset, b.nbytes), None)
                outcome["collected"] += 1
                continue
            entry = entry_at.get((b.file, b.offset, b.nbytes))
            if entry is None:
                outcome["unrepairable"] += 1
                continue
            if f.closed:  # fsck reopens the file read-write
                f.closed = False
                reopened.append(f)
            try:
                yield from fs.write(
                    f, node=0, offset=entry.offset, nbytes=entry.nbytes,
                    writer=entry.writer,
                    blocks=((entry.nbytes,), (entry.checksum,)),
                )
            except (OstFailedError, WriteTimeout):
                outcome["unrepairable"] += 1
                continue
            outcome["repaired"] += 1
            if tr is not None:
                tr.instant(
                    "block.repair", cat="integrity", pid="integrity",
                    tid=f"rank {entry.writer}",
                    args={"file": b.file, "offset": float(b.offset),
                          "was": b.status},
                )
        for f in reopened:
            yield from fs.flush(f)
            yield from fs.close(f)
        return outcome

    proc = env.process(_go(), name="fsck.repair")
    env.run(until=proc)
    return outcome


def _read_back(machine, reader: BpReader) -> Dict:
    """Checksummed read of every variable block; the bit-for-bit gate."""
    env = machine.env
    index = reader.index
    if index is None:
        index, _ = rebuild_global_index(machine.fs, reader.files)
    verifier = BpReader(machine.fs, index=index, verify=True)
    outcome = {"variables": 0, "bytes_read": 0.0, "errors": []}

    def _go():
        for var in index.variables:
            try:
                nbytes, _t = yield from verifier.read_variable(0, var)
            except IntegrityError as exc:
                outcome["errors"].append(str(exc))
                continue
            outcome["variables"] += 1
            outcome["bytes_read"] += nbytes
        return outcome

    proc = env.process(_go(), name="fsck.readback")
    env.run(until=proc)
    return outcome


def fsck_run(args) -> Dict:
    """The audit pipeline; returns the machine-readable report dict."""
    spec = jaguar(n_osts=args.n_osts).with_overrides(
        max_stripe_count=args.cap
    )
    app = AppKernel(
        "fsck",
        [Variable("v", shape=(int(args.mb * MB / 8),))],
        checksums=not args.no_checksums,
    )
    transport = _make_transport(args.transport)

    # Fault-free baseline sizes the corruption times.
    base = transport.run(
        spec.build(n_ranks=args.n_ranks, seed=args.seed), app,
        output_name="fsck",
    )
    plan = _compose_plan(args, base)

    machine = spec.build(n_ranks=args.n_ranks, seed=args.seed, faults=plan)
    completed = True
    failure = None
    try:
        res = _make_transport(args.transport).run(
            machine, app, output_name="fsck"
        )
    except TransportError as exc:
        completed = False
        failure = str(exc)
        res = exc.partial
    files = list(res.files) if res is not None else machine.fs.listdir()
    index = res.index if res is not None else None
    rebuilt = {"used": False, "uncovered": []}
    if args.rebuild_index or index is None or not index.files:
        index, uncovered = rebuild_global_index(machine.fs, files)
        rebuilt = {"used": True, "uncovered": uncovered}

    reader = BpReader(machine.fs, index=index, files=files)
    proc = machine.env.process(reader.scrub_sim(0), name="fsck.scrub")
    machine.env.run(until=proc)
    report, scrub_seconds = proc.value
    detection = detection_stats(report, machine.fs, index)

    out = {
        "transport": args.transport,
        "n_ranks": args.n_ranks,
        "n_osts": args.n_osts,
        "seed": args.seed,
        "completed": completed,
        "transport_error": failure,
        "plan": plan.to_dict() if plan is not None else None,
        "index_rebuilt": rebuilt,
        "scrub": report.to_dict(),
        "scrub_seconds": scrub_seconds,
        "detection": detection,
        "injected": (
            machine.faults.summary() if machine.faults is not None else {}
        ),
        "repair": None,
        "read_back": None,
    }
    if args.repair:
        out["repair"] = _repair(machine, reader, report)
        re_proc = machine.env.process(
            reader.scrub_sim(0), name="fsck.rescrub"
        )
        machine.env.run(until=re_proc)
        re_report, _t = re_proc.value
        out["rescrub"] = re_report.to_dict()
        out["read_back"] = _read_back(machine, reader)
    return out


def _render(out: Dict) -> str:
    lines = [
        f"fsck: {out['transport']} x{out['n_ranks']} ranks on "
        f"{out['n_osts']} OSTs, seed {out['seed']}",
        f"  run completed: {out['completed']}"
        + (f" ({out['transport_error']})" if out["transport_error"] else ""),
    ]
    if out["index_rebuilt"]["used"]:
        unc = out["index_rebuilt"]["uncovered"]
        lines.append(
            f"  global index rebuilt from local indices"
            + (f" ({len(unc)} file(s) uncovered)" if unc else "")
        )
    s = out["scrub"]
    lines.append(
        f"  scrub: {s['n_blocks']} blocks / {s['n_files']} files in "
        f"{out['scrub_seconds']:.3f} sim-s -> "
        + ", ".join(f"{v} {k}" for k, v in s["counts"].items() if v)
    )
    d = out["detection"]
    lines.append(
        f"  detection: {d['detected']}/{d['truth']} detected, "
        f"{d['undetected']} undetected, {d['false_positives']} false "
        f"positive(s)"
    )
    if out["repair"] is not None:
        r = out["repair"]
        lines.append(
            f"  repair: {r['repaired']} rewritten, {r['collected']} "
            f"unindexed collected, {r['unrepairable']} unrepairable"
        )
        rs = out["rescrub"]
        lines.append(
            "  re-scrub: "
            + (", ".join(f"{v} {k}" for k, v in rs["counts"].items() if v)
               or "empty")
            + (" [clean]" if rs["ok"] else " [still damaged]")
        )
        rb = out["read_back"]
        lines.append(
            f"  read-back: {rb['variables']} variable(s), "
            f"{rb['bytes_read']:.0f} B verified, "
            f"{len(rb['errors'])} integrity error(s)"
        )
    return "\n".join(lines)


def _strict_failures(out: Dict) -> List[str]:
    bad = []
    d = out["detection"]
    if d["undetected"] > 0:
        bad.append(f"{d['undetected']} undetected corrupt block(s)")
    if d["false_positives"] > 0:
        bad.append(f"{d['false_positives']} false positive(s)")
    if out["repair"] is not None:
        if out["repair"]["unrepairable"] > 0:
            bad.append(
                f"{out['repair']['unrepairable']} unrepairable block(s)"
            )
        if not out["rescrub"]["ok"]:
            bad.append("re-scrub after repair still finds damage")
        if out["read_back"]["errors"]:
            bad.append(
                f"{len(out['read_back']['errors'])} read-back integrity "
                f"error(s)"
            )
    return bad


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out = fsck_run(args)
    print(_render(out))
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(out, fh, indent=2)
            fh.write("\n")
        print(f"[report -> {args.json}]")
    if args.strict:
        bad = _strict_failures(out)
        if bad:
            print("fsck: STRICT FAIL: " + "; ".join(bad), file=sys.stderr)
            return 1
        print("fsck: strict checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
