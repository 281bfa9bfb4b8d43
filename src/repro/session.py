"""The instrumentation session: what newly built machines attach to.

A :class:`Session` holds an optional :class:`~repro.trace.Tracer` and an
optional :class:`~repro.telemetry.MetricsRegistry`; one process-wide
variable holds the active one.  :func:`activate` is the one scoped
activation (:func:`instrumented` layers instruments over the enclosing
session), :class:`RunSequence` the run numbering both instruments
share, and :func:`isolate` plus :meth:`Session.absorb` the one way a
sweep's jobs record: each job runs under fresh instruments and the
parent absorbs the job's ``(events, snapshot)`` in submission order, so
serial, pooled and journal-resumed sweeps record alike::

    with instrumented(tracer=Tracer(), registry=MetricsRegistry()) as s:
        fig6.run("smoke")
    chrome.export(s.tracer.events, "trace.json")
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING, Any, Callable, Iterator, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Environment
    from repro.telemetry.registry import MetricsRegistry
    from repro.trace.tracer import Tracer

__all__ = [
    "RunSequence",
    "Session",
    "activate",
    "active_session",
    "instrumented",
    "isolate",
]


class RunSequence:
    """Numbers the simulation runs one instrument observes.

    A sweep builds a fresh environment per cell; each :meth:`bind` to a
    new environment starts a new run, and records carry :attr:`run`
    so exporters can keep runs apart.
    """

    __slots__ = ("run", "_env", "_n_binds")

    def __init__(self) -> None:
        self.run = 0
        self._env: Optional["Environment"] = None
        self._n_binds = 0

    def bind(self, env: "Environment") -> None:
        """Attach to an environment; a new environment starts a new run."""
        if env is self._env:
            return
        self._env = env
        self.run = self._n_binds
        self._n_binds += 1

    @property
    def n_runs(self) -> int:
        return max(self._n_binds, 1)

    def _rebase(self, n_runs: int) -> int:
        """Reserve *n_runs* runs for a merged buffer; returns the first."""
        base = self._n_binds
        self._n_binds = base + n_runs
        return base


def _enabled(instrument) -> bool:
    return instrument is not None and instrument.enabled


class Session:
    """An optional tracer plus an optional metrics registry."""

    __slots__ = ("tracer", "registry")

    def __init__(self, tracer: Optional["Tracer"] = None,
                 registry: Optional["MetricsRegistry"] = None):
        self.tracer = tracer
        self.registry = registry

    def fresh(self) -> Optional["Session"]:
        """Empty instruments of this session's enabled kinds, or None."""
        from repro.telemetry.registry import MetricsRegistry
        from repro.trace.tracer import Tracer

        tracer = Tracer() if _enabled(self.tracer) else None
        registry = MetricsRegistry() if _enabled(self.registry) else None
        if tracer is None and registry is None:
            return None
        return Session(tracer, registry)

    def absorb(self, events: Optional[list],
               snapshot: Optional[dict]) -> None:
        """Merge one job's :func:`isolate` output into this session."""
        if self.tracer is not None:
            self.tracer.absorb(events)
        if self.registry is not None:
            self.registry.absorb(snapshot)


#: The process-wide active session (None: instrumentation off).
_ACTIVE: Optional[Session] = None


def active_session() -> Optional[Session]:
    """The session newly built machines attach to, if any."""
    return _ACTIVE


@contextmanager
def activate(session: Optional[Session]) -> Iterator[Optional[Session]]:
    """Scope in which *session* (None: no instrumentation) is active."""
    global _ACTIVE
    previous, _ACTIVE = _ACTIVE, session
    try:
        yield session
    finally:
        _ACTIVE = previous


def instrumented(tracer: Optional["Tracer"] = None,
                 registry: Optional["MetricsRegistry"] = None):
    """Scope in which every machine built attaches *tracer*/*registry*.

    An instrument left None is inherited from the enclosing session, so
    ``trace_to`` and ``metrics_to`` nest in either order.
    """
    outer = _ACTIVE
    if outer is not None:
        tracer = tracer if tracer is not None else outer.tracer
        registry = registry if registry is not None else outer.registry
    return activate(Session(tracer, registry))


def isolate(fn: Callable[[Any], Any],
            arg: Any) -> Tuple[Any, Optional[list], Optional[dict]]:
    """Run ``fn(arg)`` under fresh instruments; the active session is
    restored afterwards.

    Returns ``(result, events, snapshot)``: the job's trace events and
    registry snapshot, each None when the active session has no enabled
    instrument of that kind.  Pass the pair to :meth:`Session.absorb`.
    """
    job = _ACTIVE.fresh() if _ACTIVE is not None else None
    with activate(job):
        result = fn(arg)
    if job is None:
        return result, None, None
    events = job.tracer.events if job.tracer is not None else None
    snapshot = job.registry.snapshot() if job.registry is not None else None
    return result, events, snapshot
