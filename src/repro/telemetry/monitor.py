"""The one sampling loop: machine state -> registry / detector / samples.

Everything that periodically observes a running machine goes through
:class:`OnlineMonitor` — the dashboard's per-OST timelines, the
straggler detector's rate feed, and caller-owned load recordings.  Two
drive modes:

``settle``
    Piggy-back on the flow network: after each settle the fabric state
    is *already* advanced to now, so the monitor reads it and records a
    sample whenever an interval boundary has passed.  No calendar
    events, no extra settles, **no perturbation**: a simulation with a
    settle-mode monitor attached is bit-identical to one without
    (splitting a cache-integration step at a sampling instant would
    change float rounding — this mode never splits anything).  This is
    what ``--metrics`` and :meth:`Machine.attach_metrics` use.

``timer``
    A sim process that wakes every ``interval`` simulated seconds and
    forces accounting up to now with ``fabric.invalidate()`` — exact
    cadence, at the cost of extra settles at the sampling instants.
    For an explicit, caller-owned load recording rather than ambient
    telemetry: ``OnlineMonitor(machine, interval=dt, mode="timer",
    keep_samples=True, max_samples=None)``, then :meth:`start` /
    :meth:`stop` around the window of interest (restartable; samples
    accumulate across windows until :meth:`clear`).

Both modes produce :class:`PoolSample` records and (when a registry is
attached) the same labeled Series — ``ost.inflow{ost=i}``,
``ost.streams{ost=i}``, ``ost.cache_fill{ost=i}``,
``ost.drain_rate{ost=i}``, ``ost.state{ost=i}`` — plus engine-level
series (``sim.events``, ``sim.calendar_depth``) and aggregate fabric
inflow.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional

import numpy as np

from repro.sim.process import Interrupt
from repro.telemetry.registry import MetricsRegistry
from repro.telemetry.stragglers import StragglerDetector

if TYPE_CHECKING:  # pragma: no cover
    from repro.machines.base import Machine

__all__ = ["OnlineMonitor", "PoolSample", "snapshot_machine"]


@dataclass(frozen=True)
class PoolSample:
    """One snapshot of the storage system."""

    time: float
    stream_counts: np.ndarray  # active flows per OST
    inflow: np.ndarray  # allocated bytes/s per OST
    cache_fill: np.ndarray  # cache level / capacity per OST
    drain_rate: np.ndarray  # cache->disk bytes/s per OST
    state: np.ndarray  # OstState codes per OST


def snapshot_machine(machine: "Machine", settle: bool = True) -> PoolSample:
    """Read the machine's storage state as of now.

    ``settle=True`` first forces fabric accounting up to the current
    instant (an extra settle — perturbs float rounding downstream);
    ``settle=False`` reads the state as of the last settle, which is
    exact when called *from* the post-settle hook.
    """
    fabric = machine.fs.fabric
    pool = machine.pool
    if settle:
        fabric.invalidate()
    return PoolSample(
        time=machine.env.now,
        stream_counts=fabric.sink_stream_counts(),
        inflow=fabric.sink_inflow(),
        cache_fill=pool.cache_fill_fraction(),
        drain_rate=pool.drain_rates(),
        state=pool.state.copy(),
    )


class OnlineMonitor:
    """Samples a machine on a simulated-time cadence.

    Parameters
    ----------
    machine:
        The machine to observe.
    registry:
        Optional :class:`MetricsRegistry` receiving labeled Series.
        None records samples (and feeds the detector) only.
    interval:
        Minimum simulated seconds between samples.
    detector:
        Optional :class:`StragglerDetector` fed per-stream service
        rates each sample.  Pass ``"auto"`` to create one sized to
        the pool.
    mode:
        ``"settle"`` (non-perturbing post-settle hook) or ``"timer"``
        (exact-cadence sim process forcing a settle per sample).
    keep_samples:
        Retain :class:`PoolSample` records in :attr:`samples`.
    max_samples:
        Settle-mode memory bound: once this many samples are recorded,
        the interval doubles and every other stored sample is dropped
        (doubling decimation).  A run of any simulated length keeps at
        most ``max_samples`` points per series while the short runs the
        test suite and dashboard care about keep full resolution.
        Depends only on the simulated sampling sequence, so it is
        deterministic.  ``None`` disables (timer mode ignores it — a
        timer-mode recording keeps its exact, caller-owned cadence).
    """

    def __init__(
        self,
        machine: "Machine",
        registry: Optional[MetricsRegistry] = None,
        interval: float = 0.05,
        detector: "StragglerDetector | str | None" = None,
        mode: str = "settle",
        keep_samples: bool = False,
        max_samples: Optional[int] = 512,
    ):
        if interval <= 0:
            raise ValueError("interval must be positive")
        if mode not in ("settle", "timer"):
            raise ValueError(f"unknown monitor mode {mode!r}")
        self.machine = machine
        self.registry = registry
        self.interval = float(interval)
        if detector == "auto":
            detector = StragglerDetector(machine.pool.n_sinks)
        self.detector: Optional[StragglerDetector] = detector
        if max_samples is not None and max_samples < 2:
            raise ValueError("max_samples must be >= 2 (or None)")
        self.mode = mode
        self.keep_samples = keep_samples
        self.max_samples = max_samples
        self._n_recorded = 0
        self.samples: List[PoolSample] = []
        self._installed = False
        self._prev_hook = None
        self._next_t = -np.inf
        self._running = False
        self._proc = None
        self._wake = None
        self._n_transitions_seen = 0
        self._bound = None  # lazily-built per-OST series table

    # -- settle mode -----------------------------------------------------
    def install(self) -> None:
        """Hook the fabric; sampling starts at the next settle."""
        if self.mode != "settle":
            raise RuntimeError("install() is for settle-mode monitors")
        if self._installed:
            return
        fabric = self.machine.fs.fabric
        self._prev_hook = fabric.on_settle
        fabric.on_settle = self._on_settle
        self._next_t = self.machine.env.now
        self._installed = True

    def remove(self) -> None:
        if not self._installed:
            return
        self.machine.fs.fabric.on_settle = self._prev_hook
        self._prev_hook = None
        self._installed = False

    def _on_settle(self, now: float) -> None:
        if now >= self._next_t:
            self._record(now, settle=False)
            self._next_t = now + self.interval
        if self._prev_hook is not None:
            self._prev_hook(now)

    # -- timer mode ------------------------------------------------------
    def start(self) -> None:
        """Begin (or, after :meth:`stop`, resume) timer-driven sampling."""
        if self.mode != "timer":
            raise RuntimeError("start() is for timer-mode monitors")
        if self._running:
            raise RuntimeError("monitor already running")
        self._running = True
        self._proc = self.machine.env.process(
            self._sampler(), name="pool-monitor"
        )

    def stop(self) -> None:
        """Stop sampling and cancel the pending wakeup."""
        if not self._running:
            return
        self._running = False
        proc, self._proc = self._proc, None
        wake, self._wake = self._wake, None
        if proc is not None and proc.is_alive and proc.is_suspended:
            proc.interrupt("monitor stopped")
        if wake is not None and not wake.processed:
            wake.cancel()  # drop the pending wakeup from the calendar

    def _sampler(self):
        env = self.machine.env
        while self._running:
            self._record(env.now, settle=True)
            self._wake = env.timeout(self.interval)
            try:
                yield self._wake
            except Interrupt:
                return
            finally:
                self._wake = None

    # -- the one recording path ------------------------------------------
    def clear(self) -> None:
        self.samples.clear()

    def _record(self, now: float, settle: bool) -> None:
        snap = snapshot_machine(self.machine, settle=settle)
        if self.keep_samples:
            self.samples.append(snap)
        det = self.detector
        if det is not None:
            counts = snap.stream_counts
            active = counts > 0
            per_stream = snap.inflow / np.maximum(counts, 1)
            det.update(now, per_stream, active)
        reg = self.registry
        if reg is not None:
            self._record_registry(reg, snap, now)
        self._n_recorded += 1
        if (
            self.mode == "settle"
            and self.max_samples is not None
            and self._n_recorded >= self.max_samples
        ):
            self._decimate()

    def _decimate(self) -> None:
        """Double the interval, halve the stored resolution.

        Keeps memory bounded for arbitrarily long runs: each call
        covers twice the simulated span with the same sample budget.
        Detector state is untouched (its EWMAs already folded every
        sample in); only stored timelines thin out.
        """
        self.interval *= 2.0
        if self.keep_samples:
            self.samples = self.samples[::2]
        bound = self._bound
        if bound is not None:
            reg = self.registry
            run = reg.run if reg is not None else 0
            targets = []
            for key in ("inflow", "streams", "cache", "drain", "state"):
                targets.extend(bound[key])
            targets += [bound["total_inflow"], bound["events"],
                        bound["depth"], bound["straggler_count"]]
            for s in targets:
                kept = [x for x in s.samples if x[0] != run]
                kept += [x for x in s.samples if x[0] == run][::2]
                s.samples = kept
        self._n_recorded = (self._n_recorded + 1) // 2

    def _record_registry(self, reg: MetricsRegistry, snap: PoolSample,
                         now: float) -> None:
        bound = self._bound
        if bound is None:
            n = self.machine.pool.n_sinks
            bound = self._bound = {
                "inflow": [reg.series("ost.inflow", ost=i) for i in range(n)],
                "streams": [reg.series("ost.streams", ost=i)
                            for i in range(n)],
                "cache": [reg.series("ost.cache_fill", ost=i)
                          for i in range(n)],
                "drain": [reg.series("ost.drain_rate", ost=i)
                          for i in range(n)],
                "state": [reg.series("ost.state", ost=i) for i in range(n)],
                "total_inflow": reg.series("fabric.total_inflow"),
                "events": reg.series("sim.events"),
                "depth": reg.series("sim.calendar_depth"),
                "straggler_count": reg.series("stragglers.count"),
            }
        for i in range(len(bound["inflow"])):
            bound["inflow"][i].sample(now, float(snap.inflow[i]))
            bound["streams"][i].sample(now, int(snap.stream_counts[i]))
            bound["cache"][i].sample(now, float(snap.cache_fill[i]))
            bound["drain"][i].sample(now, float(snap.drain_rate[i]))
            bound["state"][i].sample(now, int(snap.state[i]))
        bound["total_inflow"].sample(now, float(snap.inflow.sum()))
        env = self.machine.env
        bound["events"].sample(now, float(env.events_scheduled))
        bound["depth"].sample(now, float(env.calendar_depth))
        det = self.detector
        if det is not None:
            bound["straggler_count"].sample(now, float(len(det.stragglers())))
            # Persist flag transitions as they happen so a JSON
            # snapshot (and the dashboard built from it) carries the
            # annotations without needing the live detector object.
            new = det.transitions[self._n_transitions_seen:]
            self._n_transitions_seen = len(det.transitions)
            for t, ost, flagged in new:
                reg.series("ost.straggler", ost=ost).sample(
                    t, 1.0 if flagged else 0.0
                )
