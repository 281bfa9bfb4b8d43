"""The one sampling loop: machine state -> registry and detector.

:class:`OnlineMonitor` observes a running machine for the dashboard's
per-OST timelines and the straggler detector's rate feed.  It
piggy-backs on the flow network: after each settle the fabric state
is *already* advanced to now, so the monitor reads it and records a
sample — at every settle, the instants the per-OST flow state can
change, until decimation sets a minimum interval.  No calendar events,
no extra settles, **no perturbation**: a simulation with a monitor
attached is bit-identical to one without (splitting a
cache-integration step at a sampling instant would change float
rounding — this monitor never splits anything).  ``MachineSpec.build``
installs one on every machine whose environment holds a registry
(``--metrics`` included).

Each sample lands in labeled Series — ``ost.inflow{ost=i}``,
``ost.streams{ost=i}``, ``ost.cache_fill{ost=i}``,
``ost.drain_rate{ost=i}``, ``ost.state{ost=i}`` — plus engine-level
series (``sim.events``, ``sim.calendar_depth``), aggregate fabric
inflow and the detector's straggler count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

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


def snapshot_machine(machine: "Machine") -> PoolSample:
    """Read the machine's storage state as of the last settle.

    Exact when called *from* the post-settle hook, where the fabric
    and the pool are already advanced to now.
    """
    fabric = machine.fs.fabric
    pool = machine.pool
    return PoolSample(
        time=machine.env.now,
        stream_counts=fabric.sink_stream_counts(),
        inflow=fabric.sink_inflow(),
        cache_fill=pool.cache_fill_fraction(),
        drain_rate=pool.drain_rates(),
        state=pool.state.copy(),
    )


class OnlineMonitor:
    """Samples a machine into ``registry`` from the fabric's settle hook.

    Construction hooks the fabric; sampling starts at the next settle
    and records every settle at least :attr:`interval` simulated
    seconds after the previous sample (every settle while the interval
    is 0).  Each sample also feeds :attr:`detector`, a
    :class:`StragglerDetector` sized to the pool, its per-stream
    service rates.

    Memory stays bounded by decimation: once :attr:`max_samples`
    samples are recorded, every other stored sample of the current run
    is dropped and the interval grows — the first time to the mean gap
    between the samples kept, then doubling.  A run of any simulated
    length keeps at most ``max_samples`` points per series while the
    short runs the test suite and dashboard care about keep every
    settle.  It depends only on the simulated sampling sequence, so it
    is deterministic.
    """

    interval = 0.0  # minimum simulated seconds between samples
    max_samples = 512

    def __init__(self, machine: "Machine", registry: MetricsRegistry):
        self.machine = machine
        self.registry = registry
        self.detector = StragglerDetector(machine.pool.n_sinks)
        self._n_recorded = 0
        self._n_transitions_seen = 0
        self._bound = None  # lazily-built per-OST series table
        fabric = machine.fs.fabric
        self._prev_hook = fabric.on_settle
        fabric.on_settle = self._on_settle
        self._next_t = machine.env.now

    def _on_settle(self, now: float) -> None:
        if now >= self._next_t:
            self._record(now)
            self._next_t = now + self.interval
        if self._prev_hook is not None:
            self._prev_hook(now)

    def _record(self, now: float) -> None:
        snap = snapshot_machine(self.machine)
        counts = snap.stream_counts
        self.detector.update(now, snap.inflow / np.maximum(counts, 1),
                             counts > 0)
        self._record_registry(snap, now)
        self._n_recorded += 1
        if self._n_recorded >= self.max_samples:
            self._decimate()

    def _decimate(self) -> None:
        """Halve the stored resolution and grow the interval.

        Keeps memory bounded for arbitrarily long runs: after the
        first call sets the interval from the samples kept, each call
        covers twice the simulated span with the same sample budget.
        Detector state is untouched (its EWMAs already folded every
        sample in); only stored timelines thin out.
        """
        bound = self._bound
        run = self.registry.run
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
        if self.interval > 0:
            self.interval *= 2.0
        else:
            times = [t for r, t, _ in bound["events"].samples if r == run]
            self.interval = (times[-1] - times[0]) / max(len(times) - 1, 1)

    def _record_registry(self, snap: PoolSample, now: float) -> None:
        reg = self.registry
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
        bound["straggler_count"].sample(now, float(len(det.stragglers())))
        # Persist flag transitions as they happen so a JSON snapshot
        # (and the dashboard built from it) carries the annotations
        # without needing the live detector object.
        new = det.transitions[self._n_transitions_seen:]
        self._n_transitions_seen = len(det.transitions)
        for t, ost, flagged in new:
            reg.series("ost.straggler", ost=ost).sample(
                t, 1.0 if flagged else 0.0
            )
