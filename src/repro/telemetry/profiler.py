"""Wall-clock self-profiler: where does the *simulator's* time go?

This profiler attributes real (``perf_counter``) time to simulator
layers:

===================  ==================================================
``engine``           the calendar loop itself (heap pops, dispatch)
``fabric.settle``    flow-network settles: max-min reallocation, pool
                     integration, completion bookkeeping
``protocol``         simulation-process bodies — transport protocol
                     code (writers, sub-coordinators, steering),
                     interference generators, background jobs
``protocol.stream``  the adaptive transport's group-stream callbacks
                     (boundary timers, rate-change re-predictions,
                     member completion bookkeeping), which run outside
                     any process
``other``            real time outside ``env.run`` (index assembly,
                     result construction, harness code) — total minus
                     the above
===================  ==================================================

Attribution is exclusive (stack-based): settle time spent inside a
process step counts as ``fabric.settle``, not ``protocol``, and a
tracer's records count toward the layer that makes them.

Cost model: profiling is **opt-in per run**, one machine at a time.
``env.run`` and the machine's ``fabric._settle`` are wrapped as
per-instance attributes.  The class-level boundaries in
:func:`_boundaries` are patched by :meth:`Profiler.install` with a
wrapper that reads ``self.env.profiler``, so an unprofiled environment
in the same process skips in one attribute check, and
:meth:`Profiler.uninstall` restores each from its ``__wrapped__``.
While no profiler is installed the classes hold their original
functions — zero cost.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from time import perf_counter
from typing import TYPE_CHECKING, Dict, List, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.machines.base import Machine

__all__ = ["Profiler", "format_report", "profiling"]

SECTIONS = ("engine", "fabric.settle", "protocol", "protocol.stream")


def _boundaries() -> tuple:
    """The class-level layer boundaries, as ``(class, method, section)``.

    Imported on use, so loading the telemetry package loads no
    simulator layer.
    """
    from repro.core.transports.adaptive import _GroupStream
    from repro.sim.process import Process

    # _GroupStream's entry points run as plain calendar and watcher
    # callbacks, outside any Process._step (which would otherwise
    # absorb them into ``protocol``).
    return (
        (Process, "_step", "protocol"),
        (_GroupStream, "begin", "protocol.stream"),
        (_GroupStream, "_on_timer", "protocol.stream"),
        (_GroupStream, "_on_rate_change", "protocol.stream"),
        (_GroupStream, "_on_flow_done", "protocol.stream"),
        (_GroupStream, "_on_lane_done", "protocol.stream"),
    )


def _boundary(fn, section: str):
    """Time the method ``fn`` as ``section`` when its environment is
    profiled."""

    @functools.wraps(fn)
    def timed(self, *args, **kwargs):
        prof = self.env.profiler
        if prof is None:
            return fn(self, *args, **kwargs)
        prof.push(section)
        try:
            return fn(self, *args, **kwargs)
        finally:
            prof.pop()

    return timed


def _timed(bound_method, prof: "Profiler", section: str):
    """Time every call of one instance's ``bound_method`` as ``section``."""

    def timed(*args, **kwargs):
        prof.push(section)
        try:
            return bound_method(*args, **kwargs)
        finally:
            prof.pop()

    return timed


class Profiler:
    """Accumulates exclusive wall-clock time per subsystem."""

    def __init__(self):
        self.self_time: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.wall_total: Optional[float] = None
        self._stack: List[list] = []  # [name, t0, child_time]
        self._machine: Optional["Machine"] = None

    # -- core accounting -------------------------------------------------
    def push(self, name: str) -> None:
        self._stack.append([name, perf_counter(), 0.0])

    def pop(self) -> None:
        name, t0, child = self._stack.pop()
        dt = perf_counter() - t0
        self.self_time[name] = self.self_time.get(name, 0.0) + dt - child
        self.calls[name] = self.calls.get(name, 0) + 1
        if self._stack:
            self._stack[-1][2] += dt

    # -- wiring ----------------------------------------------------------
    def install(self, machine: "Machine") -> None:
        """Attach to a machine; raises if any profiler is installed."""
        table = _boundaries()
        if any(hasattr(getattr(cls, meth), "__wrapped__")
               for cls, meth, _ in table):
            raise RuntimeError("a profiler is already installed")
        env = machine.env
        env.profiler = self
        env.run = _timed(env.run, self, "engine")
        fabric = machine.fs.fabric
        fabric._settle = _timed(fabric._settle, self, "fabric.settle")
        for cls, meth, section in table:
            setattr(cls, meth, _boundary(getattr(cls, meth), section))
        self._machine = machine

    def uninstall(self) -> None:
        machine, self._machine = self._machine, None
        if machine is None:
            return
        for cls, meth, _ in _boundaries():
            setattr(cls, meth, getattr(cls, meth).__wrapped__)
        env = machine.env
        env.profiler = None
        env.__dict__.pop("run", None)  # restore the class method
        machine.fs.fabric.__dict__.pop("_settle", None)

    # -- reporting -------------------------------------------------------
    def to_dict(self) -> dict:
        sections = {}
        for name in sorted(set(SECTIONS) | set(self.self_time)):
            sections[name] = {
                "seconds": float(self.self_time.get(name, 0.0)),
                "calls": int(self.calls.get(name, 0)),
            }
        tracked = sum(self.self_time.values())
        out = {"sections": sections, "tracked_seconds": float(tracked)}
        if self.wall_total is not None:
            out["wall_seconds"] = float(self.wall_total)
            out["other_seconds"] = float(max(self.wall_total - tracked, 0.0))
        return out


def format_report(d: dict) -> str:
    """Flame-table text of a :meth:`Profiler.to_dict`, widest first."""
    total = d.get("wall_seconds", d["tracked_seconds"]) or 1e-12
    rows = sorted(d["sections"].items(), key=lambda kv: -kv[1]["seconds"])
    lines = [f"{'subsystem':<14} {'seconds':>9} {'calls':>10} {'share':>7}"]
    lines.append("-" * len(lines[0]))
    for name, s in rows:
        lines.append(
            f"{name:<14} {s['seconds']:>9.3f} {s['calls']:>10d} "
            f"{100.0 * s['seconds'] / total:>6.1f}%"
        )
    if "other_seconds" in d:
        lines.append(
            f"{'other':<14} {d['other_seconds']:>9.3f} {'-':>10} "
            f"{100.0 * d['other_seconds'] / total:>6.1f}%"
        )
        lines.append(f"{'total':<14} {d['wall_seconds']:>9.3f}")
    return "\n".join(lines)


@contextmanager
def profiling(machine: "Machine", profiler: Optional[Profiler] = None):
    """Profile everything the machine simulates inside the block.

    Measures total wall time across the block so the report can show
    the ``other`` (outside-``env.run``) share.
    """
    prof = profiler if profiler is not None else Profiler()
    prof.install(machine)
    t0 = perf_counter()
    try:
        yield prof
    finally:
        prof.wall_total = (prof.wall_total or 0.0) + perf_counter() - t0
        prof.uninstall()
