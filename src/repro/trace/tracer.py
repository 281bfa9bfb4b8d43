"""The tracer: an in-memory buffer of structured simulation events.

Event model (a strict subset of the Chrome trace-event phases, so the
export in :mod:`repro.trace.chrome` is a direct mapping):

========  =====================================================
``ph``    meaning
========  =====================================================
``B``     span begin — something with duration started
``E``     span end — must pair with the latest open ``B`` of the
          same name on the same (pid, tid) track
``X``     complete span — duration known at record time
``i``     instant — a point occurrence (a protocol decision, a
          state transition)
``C``     counter — named numeric values sampled at a time point
========  =====================================================

``pid``/``tid`` are human-readable track labels, not OS ids: by
convention ``pid`` names the resource ("ost/3", "node/7", "mpi",
"fabric", "sim", "adaptive") and ``tid`` the actor within it
("rank 5", "flow 12", "coordinator").  The Chrome exporter maps them
to numeric ids and emits metadata so Perfetto shows the labels.

Timestamps are simulated seconds.  A tracer bound to an
:class:`~repro.sim.engine.Environment` stamps events with ``env.now``
automatically; unbound call sites (the OST pool, which only receives
``now`` as an argument) pass ``ts`` explicitly.

One tracer may observe several simulation runs (a sweep builds a fresh
environment per cell); each bind starts a new *run* and events carry
the run index so exporters can keep runs apart.  The run numbering is
the :class:`~repro.session.RunSequence` shared with the metrics
registry.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional

from repro.session import RunSequence

__all__ = ["TraceEvent", "Tracer", "check_well_formed"]


@dataclass(frozen=True)
class TraceEvent:
    """One recorded occurrence."""

    ph: str  # "B" | "E" | "X" | "i" | "C"
    name: str
    cat: str
    ts: float  # simulated seconds
    pid: str  # resource track label ("ost/3", "node/7", "mpi", ...)
    tid: str  # actor track label ("rank 5", "flow 12", ...)
    run: int = 0
    dur: float = 0.0  # "X" only: span duration, seconds
    args: Optional[Dict[str, Any]] = None


class Tracer(RunSequence):
    """Collects :class:`TraceEvent` records from instrumented layers.

    Parameters
    ----------
    enabled:
        When False every record method is a no-op; instrumentation
        sites additionally skip the call entirely when ``env.tracer``
        is None, so an untraced simulation pays one attribute load per
        site and nothing else.
    """

    __slots__ = ("enabled", "events")

    def __init__(self, enabled: bool = True):
        super().__init__()
        self.enabled = enabled
        self.events: List[TraceEvent] = []

    # -- lifecycle -------------------------------------------------------
    def absorb(self, events: Optional[List[TraceEvent]]) -> None:
        """Merge another tracer's buffer (e.g. from a worker process).

        Each distinct run index in *events* is assigned a fresh run
        index here, continuing this tracer's own sequence — so a sweep
        that fans samples out over processes produces the same
        one-run-per-sample structure (and the same ``runN`` track
        prefixes in the Chrome export) as a serial sweep.
        """
        if not self.enabled or not events:
            return
        base = self._rebase(max(ev.run for ev in events) + 1)
        self.events.extend(replace(ev, run=base + ev.run) for ev in events)

    def clear(self) -> None:
        self.events.clear()

    def __len__(self) -> int:
        return len(self.events)

    def _ts(self, ts: Optional[float]) -> float:
        if ts is not None:
            return ts
        return self._env.now if self._env is not None else 0.0

    # -- recording -------------------------------------------------------
    def begin(
        self,
        name: str,
        cat: str,
        pid: str,
        tid: str,
        ts: Optional[float] = None,
        args: Optional[dict] = None,
    ) -> None:
        if not self.enabled:
            return
        self.events.append(
            TraceEvent("B", name, cat, self._ts(ts), pid, tid, self.run,
                       args=args)
        )

    def end(
        self,
        name: str,
        cat: str,
        pid: str,
        tid: str,
        ts: Optional[float] = None,
        args: Optional[dict] = None,
    ) -> None:
        if not self.enabled:
            return
        self.events.append(
            TraceEvent("E", name, cat, self._ts(ts), pid, tid, self.run,
                       args=args)
        )

    def complete(
        self,
        name: str,
        cat: str,
        pid: str,
        tid: str,
        ts: float,
        dur: float,
        args: Optional[dict] = None,
    ) -> None:
        """A span whose duration is known at record time (Chrome "X")."""
        if not self.enabled:
            return
        self.events.append(
            TraceEvent("X", name, cat, ts, pid, tid, self.run, dur=dur,
                       args=args)
        )

    def instant(
        self,
        name: str,
        cat: str,
        pid: str,
        tid: str,
        ts: Optional[float] = None,
        args: Optional[dict] = None,
    ) -> None:
        if not self.enabled:
            return
        self.events.append(
            TraceEvent("i", name, cat, self._ts(ts), pid, tid, self.run,
                       args=args)
        )

    def counter(
        self,
        name: str,
        pid: str,
        values: Dict[str, float],
        tid: str = "counters",
        ts: Optional[float] = None,
    ) -> None:
        if not self.enabled:
            return
        self.events.append(
            TraceEvent("C", name, "counter", self._ts(ts), pid, tid,
                       self.run, args=dict(values))
        )

    @contextmanager
    def span(self, name: str, cat: str, pid: str, tid: str,
             args: Optional[dict] = None):
        """Context-manager convenience for non-yielding code paths."""
        self.begin(name, cat, pid, tid, args=args)
        try:
            yield
        finally:
            self.end(name, cat, pid, tid)

    def close_open_spans(self, ts: Optional[float] = None) -> int:
        """Close every still-open ``B`` span of the current run.

        When a transport aborts mid-run (a fault made it raise), the
        processes holding spans open never reach their ``end()`` calls
        and the Chrome trace would carry dangling ``B`` events.  This
        appends matching ``E`` events (tagged ``{"aborted": True}``) in
        proper nesting order, so :func:`check_well_formed` passes on
        aborted runs too.  Returns the number of spans closed.
        """
        if not self.enabled:
            return 0
        stacks: Dict[tuple, List[TraceEvent]] = {}
        for ev in self.events:
            if ev.run != self.run:
                continue
            key = (ev.pid, ev.tid)
            if ev.ph == "B":
                stacks.setdefault(key, []).append(ev)
            elif ev.ph == "E":
                stack = stacks.get(key)
                if stack:
                    stack.pop()
        t = self._ts(ts)
        closed = 0
        for (pid, tid), stack in stacks.items():
            for b in reversed(stack):
                self.events.append(
                    TraceEvent("E", b.name, b.cat, max(t, b.ts), pid, tid,
                               self.run, args={"aborted": True})
                )
                closed += 1
        return closed


def check_well_formed(
    events: List[TraceEvent], allow_unclosed: bool = False
) -> List[str]:
    """Validate span nesting; returns a list of problem descriptions.

    Per (run, pid, tid) track, ``B``/``E`` events must form a properly
    nested sequence: every ``E`` closes the most recent open ``B`` of
    the same name, and no ``B`` is left open at the end.  ``X``, ``i``
    and ``C`` events are self-contained and only checked for
    non-negative duration.

    ``allow_unclosed`` skips the still-open-at-end check: a trace cut
    at simulation end legitimately leaves spans open (e.g. background
    interference flows that outlive the measured output).
    """
    errors: List[str] = []
    stacks: Dict[tuple, List[TraceEvent]] = {}
    for ev in events:
        key = (ev.run, ev.pid, ev.tid)
        if ev.ph == "B":
            stacks.setdefault(key, []).append(ev)
        elif ev.ph == "E":
            stack = stacks.get(key)
            if not stack:
                errors.append(
                    f"E {ev.name!r} at t={ev.ts} on {key} with no open span"
                )
            else:
                top = stack.pop()
                if top.name != ev.name:
                    errors.append(
                        f"E {ev.name!r} at t={ev.ts} on {key} closes "
                        f"B {top.name!r} (improper nesting)"
                    )
                elif ev.ts < top.ts:
                    errors.append(
                        f"span {ev.name!r} on {key} ends at {ev.ts} "
                        f"before it begins at {top.ts}"
                    )
        elif ev.ph == "X" and ev.dur < 0:
            errors.append(
                f"X {ev.name!r} at t={ev.ts} has negative duration {ev.dur}"
            )
    if not allow_unclosed:
        for key, stack in stacks.items():
            for ev in stack:
                errors.append(
                    f"B {ev.name!r} at t={ev.ts} on {key} never closed"
                )
    return errors
