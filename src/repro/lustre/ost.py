"""Storage targets (OSTs): the locus of internal interference.

Each OST is modelled as a two-stage server:

1. an **ingest port** backed by a write-back cache — while the cache
   has headroom, writes are absorbed at near-network speed (this is why
   the paper's 1 MB-per-writer IOR runs never see interference);
2. a **drain stage** (the disks) emptying the cache at
   ``drain_peak * seek_efficiency(n_streams) * load_multiplier(t)``.

``seek_efficiency`` is the internal-interference mechanism: a single
stream cannot saturate the disks, a few streams can, and many
concurrent streams thrash seeks so aggregate throughput *falls* — the
shape measured in Fig. 1 of the paper.  ``load_multiplier`` is the
external-interference hook driven by :mod:`repro.interference`.

All OSTs of a file system are managed by one :class:`OstPool` whose
state is held in numpy arrays, implementing the
:class:`repro.net.fabric.SinkPool` protocol so the flow network never
iterates over storage targets in Python.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from numbers import Integral
from typing import ClassVar, Dict, Optional, Sequence, Tuple

import numpy as np

from repro.units import GB, MB

__all__ = ["EfficiencyCurve", "OstPoolConfig", "OstPool", "OstState"]

_LEVEL_EPS = 1.0  # bytes: cache-level comparisons tolerance


class OstState:
    """Health states of a storage target (int8 codes in ``OstPool.state``).

    UP        — normal operation.
    DEGRADED  — brownout: drain bandwidth scaled by a fault factor.
    HUNG      — requests accepted but never complete (ingest and drain
                both pinned to zero) until recovery.
    FAILED    — fail-stop: in-flight and future writes error; cached
                dirty bytes are lost.
    """

    UP = 0
    DEGRADED = 1
    HUNG = 2
    FAILED = 3


class EfficiencyCurve:
    """Throughput efficiency as a function of concurrent stream count.

    Defined by control points ``(n_streams, efficiency)`` interpolated
    piecewise-linearly in ``log2(n)`` and held flat beyond the last
    point.  Efficiency multiplies the stage's peak bandwidth.

    >>> curve = EfficiencyCurve([(1, 0.5), (4, 1.0), (16, 0.8)])
    >>> float(curve(np.array([2])))
    0.75
    """

    def __init__(self, points: Sequence[Tuple[float, float]]):
        pts = sorted((float(n), float(e)) for n, e in points)
        if len(pts) < 1:
            raise ValueError("need at least one control point")
        if any(n <= 0 for n, _ in pts):
            raise ValueError("stream counts must be positive")
        if any(e <= 0 for _, e in pts):
            raise ValueError("efficiencies must be positive")
        ns = [n for n, _ in pts]
        if len(set(ns)) != len(ns):
            raise ValueError("duplicate stream-count control points")
        self._log_n = np.log2([n for n, _ in pts])
        self._eff = np.array([e for _, e in pts])

    def __call__(self, counts: np.ndarray) -> np.ndarray:
        """Vectorized efficiency for an array of stream counts."""
        counts = np.asarray(counts, dtype=np.float64)
        safe = np.maximum(counts, 1.0)
        return np.interp(np.log2(safe), self._log_n, self._eff)

    def at(self, n: float) -> float:
        """Scalar convenience accessor."""
        return float(self(np.array([n]))[0])


def lustre_drain_curve() -> EfficiencyCurve:
    """Default Lustre disk-stage efficiency (calibrated to Fig. 1).

    A lone stream cannot keep the RAID busy (~0.72 of peak); 2-4
    streams saturate it; beyond ~8 streams seek thrash erodes
    throughput, reproducing the 16-28% aggregate decline the paper
    measures when scaling from 8 k to 16 k writers over 512 OSTs
    (16 -> 32 streams per OST).
    """
    return EfficiencyCurve(
        [
            (1, 0.72),
            (2, 0.95),
            (4, 1.00),
            (8, 0.97),
            (16, 0.86),
            (32, 0.68),
            (64, 0.50),
            (128, 0.34),
            (256, 0.22),
            (1024, 0.12),
        ]
    )


def lustre_ingest_curve() -> EfficiencyCurve:
    """Default OSS ingest-stage (RPC service) efficiency.

    Much shallower than the disk curve: request-processing contention
    at the object storage server degrades cache-absorbed writes only
    mildly, and RPC pipelining actually improves slightly up to ~16
    concurrent streams — which is why the paper's 8 MB (cache-
    friendly) case peaks at 16 writers per OST, versus 4 for the
    large (drain-bound) sizes.
    """
    return EfficiencyCurve(
        [
            (1, 0.92),
            (2, 0.95),
            (4, 0.98),
            (8, 0.99),
            (16, 1.00),
            (64, 1.00),
            (128, 0.90),
            (512, 0.70),
        ]
    )


@dataclass(frozen=True)
class OstPoolConfig:
    """Static description of a pool of storage targets.

    ``drain_peak`` mirrors the paper's ~180 MB/s per-OST theoretical
    peak.  ``cache_capacity`` is the *effective* write-back watermark
    — the dirty data a target absorbs at ingest speed before writeback
    throttling makes the disks the bottleneck.  The paper cites a 2 GB
    physical storage-target cache, but only a fraction of it is usable
    as burst headroom; 256 MB reproduces the measured onset of
    internal interference (>=128 MB writers degrade from 4 writers per
    OST, 8 MB writers only beyond 16:1, 1 MB writers never — Fig. 1).

    ``hysteresis``: a full cache holds its target drain-bound until it
    drains back to this fraction of its capacity.
    ``ingest_noise_exponent``: the depth at which a load multiplier
    reaches the ingest stage (``ingest = load ** exponent``).
    """

    n_osts: int
    drain_peak: float = 180.0 * MB
    ingest_peak: float = 400.0 * MB
    cache_capacity: float = 192.0 * MB
    drain_curve: EfficiencyCurve = field(default_factory=lustre_drain_curve)
    ingest_curve: EfficiencyCurve = field(default_factory=lustre_ingest_curve)
    stable_fraction: float = 0.75
    hysteresis: ClassVar[float] = 0.95
    ingest_noise_exponent: ClassVar[float] = 0.5

    def __post_init__(self):
        if not isinstance(self.n_osts, Integral):
            raise ValueError(f"n_osts must be an integer, got {self.n_osts!r}")
        if self.n_osts < 1:
            raise ValueError("n_osts must be >= 1")
        if self.drain_peak <= 0 or self.ingest_peak <= 0:
            raise ValueError("bandwidths must be positive")
        if self.ingest_peak < self.drain_peak:
            raise ValueError("ingest_peak must be >= drain_peak")
        if self.cache_capacity < 0:
            raise ValueError("cache_capacity must be non-negative")
        if not 0.0 <= self.stable_fraction <= 1.0:
            raise ValueError("stable_fraction must be in [0, 1]")

    @property
    def stable_bytes(self) -> float:
        """Battery-backed (durable) portion of the write-back cache.

        Jaguar's Spider file system sat on DDN S2A9900 couplets whose
        write-back caches are mirrored and battery-backed — an fsync is
        satisfied once data reaches that region, not the platters.
        Flush therefore only waits for dirty data *beyond* this
        watermark to drain.
        """
        return self.stable_fraction * self.cache_capacity


class OstPool:
    """Dynamic state of all OSTs; the fabric's sink pool.

    The pool integrates cache levels between fabric settlements,
    reports per-OST ingest capacities, and predicts when the next
    capacity transition (cache filling up, or draining back below the
    hysteresis threshold) will occur so the fabric can arm its timer.
    """

    def __init__(self, config: OstPoolConfig):
        self.config = config
        n = config.n_osts
        self.n_sinks = n
        self.cache_level = np.zeros(n)
        self.load_mult = np.ones(n)
        self.ingest_mult = np.ones(n)
        self._full = np.zeros(n, dtype=bool)
        self._last_counts = np.zeros(n, dtype=np.int64)
        self.bytes_absorbed = np.zeros(n)  # cumulative ingest per OST
        self.bytes_drained = np.zeros(n)  # cumulative cache->disk per OST
        self.state = np.zeros(n, dtype=np.int8)  # OstState codes
        self.fault_mult = np.ones(n)  # drain-stage fault scaling
        self._ingest_gate = np.ones(n)  # 0.0 while hung/failed
        self.bytes_lost = np.zeros(n)  # dirty bytes lost to fail-stop
        # Sticky flag: once any fault API has been touched, write-path
        # health checks stay on; fault-free runs never pay for them.
        self.faults_active = False
        # Wired by the file system (see bind); None when standalone.
        self._env = None
        self._on_change = None
        # Rate memo: drain and ingest rates, and their minimum, for the
        # counts snapshot `_memo_counts` under the current multipliers.
        # One settle reads it up to three times (advance, capacities,
        # next_transition) and the fabric hands the same read-only
        # snapshot to every settle until a stream count changes, so an
        # identity check usually suffices.  Otherwise only sinks whose
        # count differs from the memo's, or that `_stale` marks (a
        # multiplier or fault transition), are re-evaluated.
        self._memo_counts: Optional[np.ndarray] = None
        self._drain = np.zeros(n)
        self._ingest = np.zeros(n)
        self._min_rate = np.zeros(n)
        self._stale = np.zeros(n, dtype=bool)
        self._any_stale = False

    # -- wiring ----------------------------------------------------------
    def bind(self, env, on_change) -> None:
        """Wire the pool to its file system's environment and fabric.

        *on_change* (the fabric's invalidate()) runs after out-of-band
        changes.  The pool reads ``env.tracer`` and ``env.metrics`` per
        call, stamping trace events with the ``now`` the fabric hands
        it, and counting fault transitions.
        """
        self._env = env
        self._on_change = on_change

    def _registry(self):
        return self._env.metrics if self._env is not None else None

    def set_load_multiplier(
        self,
        mult: np.ndarray | float,
        osts: "np.ndarray | int | None" = None,
        ingest_mult: "np.ndarray | float | None" = None,
    ) -> None:
        """Set the external-load multipliers; triggers a fabric resettle.

        ``mult`` scales the drain stage: 1.0 is a quiet system, 0.25
        means three quarters of the disk bandwidth is consumed by
        traffic outside the simulated job.  ``ingest_mult`` optionally
        scales the ingest (OSS/RPC) stage separately; when omitted it
        defaults to ``mult ** ingest_noise_exponent`` — backbone-style
        interference reaches cache-absorbed writes only at reduced
        depth, while callers modelling OSS-local contention can pass
        the full-depth value.

        ``osts`` (an index, index array or mask; all OSTs when None)
        selects the entries written.  Both values are checked to fit
        those entries and to lie in (0, 1] before anything is written,
        so a rejected call (NaN included) leaves the pool as it was.
        Only the written entries are marked stale, so a one-OST update
        costs one sink's rate refresh at the next settle.
        """
        load = np.asarray(mult, dtype=np.float64)
        ingest = (
            load ** self.config.ingest_noise_exponent
            if ingest_mult is None
            else np.asarray(ingest_mult, dtype=np.float64)
        )
        which = slice(None) if osts is None else osts
        shape = np.shape(self.load_mult[which])
        load = np.broadcast_to(load, shape)
        ingest = np.broadcast_to(ingest, shape)
        for name, value in (("load", load), ("ingest", ingest)):
            # Written as a negation so NaN fails the check too.
            if not np.all((value > 0) & (value <= 1.0 + 1e-9)):
                raise ValueError(f"{name} multipliers must be in (0, 1]")
        self.load_mult[which] = load
        self.ingest_mult[which] = ingest
        self._mark_stale(which)
        if self._on_change is not None:
            self._on_change()

    # -- fault state ------------------------------------------------------
    def fail_ost(self, ost: int) -> float:
        """Fail-stop a target: its cached dirty bytes are lost.

        Returns the bytes lost.  The caller (fault injector) is
        responsible for erroring in-flight fabric flows; the pool only
        manages storage-side state.
        """
        return self._transition(ost, OstState.FAILED, 0.0, 0.0, "failed")

    def hang_ost(self, ost: int) -> None:
        """Hang a target: ingest and drain stop, cache contents held."""
        self._transition(ost, OstState.HUNG, 0.0, 0.0, "hung")

    def brownout_ost(self, ost: int, factor: float) -> None:
        """Scale a target's drain bandwidth by ``factor`` (DEGRADED)."""
        if not 0.0 < factor <= 1.0:
            raise ValueError(f"brownout factor must be in (0, 1], got {factor}")
        self._transition(ost, OstState.DEGRADED, float(factor), 1.0,
                         "degraded")

    def recover_ost(self, ost: int) -> None:
        """Return a target to UP (a failed target comes back empty)."""
        self._transition(ost, OstState.UP, 1.0, 1.0, "up")

    def _transition(self, ost: int, state: int, fault_mult: float,
                    ingest_gate: float, to: str) -> float:
        """Move one target to ``state``; returns the cached bytes lost.

        Every state change but a recovery marks the pool as having
        seen faults; only a fail-stop loses the cache.
        """
        i = int(ost)
        if state != OstState.UP:
            self.faults_active = True
        self.state[i] = state
        self.fault_mult[i] = fault_mult
        self._ingest_gate[i] = ingest_gate
        lost = 0.0
        if state == OstState.FAILED:
            lost = float(self.cache_level[i])
            self.bytes_lost[i] += lost
            self.cache_level[i] = 0.0
            self._full[i] = False
        self._mark_stale(i)
        mi = self._registry()
        if mi is not None:
            mi.counter("ost.state_changes", to=to, ost=i).inc()
            if state == OstState.FAILED:
                mi.counter("ost.bytes_lost", ost=i).inc(lost)
        if self._on_change is not None:
            self._on_change()
        return lost

    def healthy(self) -> np.ndarray:
        """Boolean mask of targets accepting writes (UP or DEGRADED)."""
        return self.state <= OstState.DEGRADED

    # -- SinkPool protocol -------------------------------------------------
    def _mark_stale(self, which) -> None:
        """Flag sinks (an index or a mask) whose rate inputs changed."""
        self._stale[which] = True
        self._any_stale = True

    def _refresh(self, counts: np.ndarray) -> None:
        """Bring the rate memo up to ``counts`` and the current multipliers.

        Every rate is an elementwise product of per-sink terms, so
        re-evaluating a subset of sinks yields exactly the floats a
        full evaluation would.
        """
        memo = self._memo_counts
        if memo is counts and not self._any_stale:
            return
        if memo is None or len(memo) != len(counts):
            idx = slice(None)
        else:
            changed = counts != memo
            if self._any_stale:
                changed |= self._stale
            idx = changed.nonzero()[0]
        cfg = self.config
        # Cached bytes keep draining after their writers finish; a quiet
        # disk drains like a single sequential stream.
        n = np.maximum(counts[idx], 1)
        drain = (cfg.drain_peak * cfg.drain_curve(n)
                 * self.load_mult[idx] * self.fault_mult[idx])
        ingest = (cfg.ingest_peak * cfg.ingest_curve(n)
                  * self.ingest_mult[idx] * self._ingest_gate[idx])
        self._drain[idx] = drain
        self._ingest[idx] = ingest
        self._min_rate[idx] = np.minimum(drain, ingest)
        if self._any_stale:
            self._stale[:] = False
            self._any_stale = False
        # A caller may mutate a writeable array in place; key the memo
        # on a private copy of it so the next diff sees the change.
        self._memo_counts = (
            counts.copy() if counts.flags.writeable else counts
        )

    def advance(self, dt: float, inflow: np.ndarray, now: float) -> None:
        if dt <= 0:
            return
        self._refresh(self._last_counts)
        drain = self._drain
        absorbed = inflow * dt
        self.bytes_absorbed += absorbed
        before = self.cache_level.copy()
        self.cache_level += absorbed - drain * dt
        np.clip(self.cache_level, 0.0, self.config.cache_capacity,
                out=self.cache_level)
        # Conservation gives exact drained bytes even through clipping.
        self.bytes_drained += absorbed + before - self.cache_level

    def capacities(self, counts: np.ndarray, now: float) -> np.ndarray:
        tr = self._env.tracer if self._env is not None else None
        traced = tr is not None
        if traced:
            self._trace_stream_changes(tr, counts, now)
        self._refresh(counts)
        self._last_counts = self._memo_counts
        cap = self.config.cache_capacity
        if cap > 0:
            # Hysteresis band keeps the full/not-full flag from
            # chattering: set when the cache tops out, cleared once it
            # drains to `hysteresis * capacity`.  The one-byte
            # tolerance matters: the drain timer fires exactly at the
            # crossing, where `level - drain*dt` can round back to the
            # boundary value and a strict comparison would livelock.
            before = self._full.copy() if traced else None
            self._full |= self.cache_level >= cap - _LEVEL_EPS
            self._full &= (
                self.cache_level
                > self.config.hysteresis * cap + _LEVEL_EPS
            )
            if traced:
                self._trace_cache_transitions(tr, before, now)
        else:
            self._full[:] = True
        return np.where(self._full, self._min_rate, self._ingest)

    def next_transition(
        self, inflow: np.ndarray, counts: np.ndarray, now: float
    ) -> float:
        cap = self.config.cache_capacity
        if cap <= 0:
            return float("inf")
        self._refresh(counts)
        # A cache that is not full fills toward capacity; a full one
        # empties toward the hysteresis threshold.
        net = inflow - self._drain
        full, level = self._full, self.cache_level
        closing = np.where(full, -net, net)
        gap = np.where(full, level - self.config.hysteresis * cap,
                       cap - level)
        moving = (closing > 0).nonzero()[0]
        if not moving.size:
            return float("inf")
        return max(float((gap[moving] / closing[moving]).min()), 0.0)

    # -- trace hooks -----------------------------------------------------
    def _trace_stream_changes(self, tr, counts: np.ndarray,
                              now: float) -> None:
        """Counter events for OSTs whose stream count (and therefore
        seek efficiency) just changed."""
        prev = self._last_counts
        if len(prev) != len(counts):
            return  # pool reconfigured mid-run; nothing comparable
        changed = np.nonzero(counts != prev)[0]
        if changed.size == 0:
            return
        eff = self.config.drain_curve(np.maximum(counts[changed], 1))
        for j, i in enumerate(changed):
            tr.counter(
                "streams",
                pid=f"ost/{int(i)}",
                values={
                    "streams": int(counts[i]),
                    "seek_efficiency": float(eff[j]),
                },
                ts=now,
            )

    def _trace_cache_transitions(self, tr, before: np.ndarray,
                                 now: float) -> None:
        """Instant events for caches crossing the full/drained boundary."""
        flipped = np.nonzero(before != self._full)[0]
        for i in flipped:
            tr.instant(
                "cache.full" if self._full[i] else "cache.drained",
                cat="ost",
                pid=f"ost/{int(i)}",
                tid="cache",
                ts=now,
                args={"level": float(self.cache_level[i])},
            )

    # -- inspection ------------------------------------------------------
    def drain_rates(self) -> np.ndarray:
        """Current cache->disk drain rate per OST (snapshot)."""
        # Copy: the memo must not be mutated by callers.
        self._refresh(self._last_counts)
        return self._drain.copy()

    def cache_fill_fraction(self) -> np.ndarray:
        cap = self.config.cache_capacity
        if cap <= 0:
            return np.ones(self.n_sinks)
        return self.cache_level / cap

    def congestion_scores(self) -> np.ndarray:
        """Per-OST congestion score in [0, 1] for the QoS controller.

        A target is congested when its write-back cache is the
        bottleneck: the score is the cache fill fraction, saturated to
        1.0 while the hysteresis flag holds the target drain-bound.
        Hung and failed targets score 1.0 — they serve nothing, so
        traffic pinned to them is congested by definition.
        """
        score = self.cache_fill_fraction().copy()
        score[self._full] = 1.0
        score[self.state >= OstState.HUNG] = 1.0
        return np.clip(score, 0.0, 1.0)

    def summary(self) -> Dict[str, float]:
        """Aggregate state snapshot (for logs and tests)."""
        return {
            "n_osts": self.n_sinks,
            "mean_cache_fill": float(self.cache_fill_fraction().mean()),
            "n_full": int(self._full.sum()),
            "total_absorbed": float(self.bytes_absorbed.sum()),
            "mean_load_mult": float(self.load_mult.mean()),
        }
