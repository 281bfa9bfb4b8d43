"""Darshan-style per-writer I/O counters derived from a trace.

Darshan's insight is that a handful of per-rank counters — bytes
moved, operation counts, time per phase — diagnose most parallel-IO
pathologies without a full timeline.  This module folds the writer
phase spans every transport records (``wait`` for waiting on a
coordinator/SC signal, ``index`` for local index construction,
``write`` for the data movement itself; category ``writer``) into one
:class:`WriterCounters` record per writer per run, and renders them as
a report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.trace.tracer import TraceEvent

__all__ = ["WriterCounters", "per_writer_counters", "render_report"]

PHASES = ("wait", "index", "write")


@dataclass
class WriterCounters:
    """Counters for one writer (one rank) in one run."""

    run: int
    writer: str  # tid label, e.g. "rank 5"
    node: str  # pid label, e.g. "node/3"
    bytes_written: float = 0.0
    write_count: int = 0
    adaptive_writes: int = 0
    retries: int = 0  # write.retry fault instants (timeout + backoff)
    aborts: int = 0  # write.abort fault instants (gave up)
    corrupt_detected: int = 0  # verify failures + scrub detections
    repaired: int = 0  # block.repair integrity instants
    time: Dict[str, float] = field(
        default_factory=lambda: {p: 0.0 for p in PHASES}
    )

    @property
    def total_time(self) -> float:
        return sum(self.time.values())

    @property
    def slowest_phase(self) -> str:
        return max(PHASES, key=lambda p: self.time[p])

    @property
    def fastest_phase(self) -> str:
        return min(PHASES, key=lambda p: self.time[p])


def per_writer_counters(events: List[TraceEvent]) -> List[WriterCounters]:
    """Fold writer-phase spans into per-(run, writer) counters.

    Unclosed spans (a simulation stopped mid-write) contribute nothing;
    only completed begin/end pairs are counted.
    """
    counters: Dict[Tuple[int, str], WriterCounters] = {}
    open_spans: Dict[Tuple[int, str, str, str], TraceEvent] = {}

    def writer_of(ev: TraceEvent) -> WriterCounters:
        wkey = (ev.run, ev.tid)
        wc = counters.get(wkey)
        if wc is None:
            wc = WriterCounters(run=ev.run, writer=ev.tid, node=ev.pid)
            counters[wkey] = wc
        return wc

    for ev in events:
        if ev.cat == "fault" and ev.ph == "i":
            # Retry/abort instants the fault-tolerant write path emits.
            if ev.name == "write.retry":
                writer_of(ev).retries += 1
            elif ev.name == "write.abort":
                writer_of(ev).aborts += 1
            continue
        if ev.cat == "integrity" and ev.ph == "i":
            # Integrity instants: per-writer detections (a failed
            # read-back verify or a scrub hit attributed to the block's
            # writer) and repairs (a verify-failed block rewritten ok).
            if ev.name in ("write.verify_fail", "scrub.detect"):
                writer_of(ev).corrupt_detected += 1
            elif ev.name == "block.repair":
                writer_of(ev).repaired += 1
            continue
        if ev.cat != "writer" or ev.name not in PHASES:
            continue
        key = (ev.run, ev.pid, ev.tid, ev.name)
        if ev.ph == "B":
            open_spans[key] = ev
            continue
        if ev.ph != "E":
            continue
        b = open_spans.pop(key, None)
        if b is None:
            continue
        wc = writer_of(ev)
        wc.time[ev.name] += ev.ts - b.ts
        if ev.name == "write":
            wc.write_count += 1
            args = b.args or {}
            wc.bytes_written += float(args.get("nbytes", 0.0))
            if args.get("adaptive"):
                wc.adaptive_writes += 1
    return sorted(counters.values(), key=_sort_key)


def _sort_key(wc: WriterCounters):
    # "rank 12" sorts numerically, anything else lexically after.
    parts = wc.writer.rsplit(" ", 1)
    try:
        rank = int(parts[-1])
    except ValueError:
        rank = 1 << 30
    return (wc.run, rank, wc.writer)


def _fmt_bytes(n: float) -> str:
    for unit, div in (("GB", 1e9), ("MB", 1e6), ("KB", 1e3)):
        if n >= div:
            return f"{n / div:.1f} {unit}"
    return f"{n:.0f} B"


def render_report(
    counters: List[WriterCounters], top: Optional[int] = None
) -> str:
    """Darshan-style text report; ``top`` keeps the N slowest writers."""
    if not counters:
        return "no writer-phase spans in trace (was tracing enabled?)"
    lines: List[str] = []
    runs = sorted({wc.run for wc in counters})
    for run in runs:
        run_wcs = [wc for wc in counters if wc.run == run]
        shown = run_wcs
        if top is not None and len(run_wcs) > top:
            shown = sorted(
                run_wcs, key=lambda w: w.total_time, reverse=True
            )[:top]
        total_bytes = sum(w.bytes_written for w in run_wcs)
        total_writes = sum(w.write_count for w in run_wcs)
        adaptive = sum(w.adaptive_writes for w in run_wcs)
        retries = sum(w.retries for w in run_wcs)
        aborts = sum(w.aborts for w in run_wcs)
        detected = sum(w.corrupt_detected for w in run_wcs)
        repaired = sum(w.repaired for w in run_wcs)
        summary = (
            f"# run {run}: {len(run_wcs)} writers, "
            f"{_fmt_bytes(total_bytes)} in {total_writes} writes "
            f"({adaptive} steered adaptively)"
        )
        # Fault/integrity columns appear only when faults actually bit:
        # the fault-free report stays byte-identical.
        faulty = retries > 0 or aborts > 0
        integrity = detected > 0 or repaired > 0
        if faulty:
            summary += f"; {retries} retries, {aborts} aborts"
        if integrity:
            summary += (
                f"; {detected} corrupt block(s) detected, "
                f"{repaired} repaired"
            )
        lines.append(summary)
        header = (
            f"{'writer':<12} {'bytes':>10} {'writes':>6} {'adapt':>5} "
        )
        if faulty:
            header += f"{'retry':>5} {'abort':>5} "
        if integrity:
            header += f"{'det':>4} {'rep':>4} "
        header += (
            f"{'t_wait':>9} {'t_index':>9} {'t_write':>9} "
            f"{'slowest':>8} {'fastest':>8}"
        )
        lines.append(header)
        lines.append("-" * len(header))
        for wc in shown:
            row = (
                f"{wc.writer:<12} {_fmt_bytes(wc.bytes_written):>10} "
                f"{wc.write_count:>6d} {wc.adaptive_writes:>5d} "
            )
            if faulty:
                row += f"{wc.retries:>5d} {wc.aborts:>5d} "
            if integrity:
                row += f"{wc.corrupt_detected:>4d} {wc.repaired:>4d} "
            row += (
                f"{wc.time['wait']:>9.4f} {wc.time['index']:>9.4f} "
                f"{wc.time['write']:>9.4f} "
                f"{wc.slowest_phase:>8} {wc.fastest_phase:>8}"
            )
            lines.append(row)
        if shown is not run_wcs and len(shown) < len(run_wcs):
            lines.append(
                f"... {len(run_wcs) - len(shown)} more writers "
                f"(slowest {len(shown)} shown; use --all for every writer)"
            )
        waits = [w.time["wait"] for w in run_wcs]
        writes = [w.time["write"] for w in run_wcs]
        lines.append(
            f"# aggregate: max t_wait {max(waits):.4f}s, "
            f"max t_write {max(writes):.4f}s, "
            f"mean t_write {sum(writes) / len(writes):.4f}s"
        )
        lines.append("")
    return "\n".join(lines).rstrip()
