"""Max-min fair fluid-flow network.

Every bulk transfer in the simulator (a writer streaming its buffer to a
storage target, a background-interference job hammering an OST, an
analysis read) is a *flow*: ``(source NIC, sink port, remaining bytes)``.
At any instant the instantaneous rate of each flow is its share under
the **max-min fair allocation** subject to

* per-source capacity (node NIC injection bandwidth),
* per-sink capacity (storage-target ingest, supplied by a
  :class:`SinkPool` and allowed to depend on stream count, cache state
  and external load), and
* the network's flow cap: the client's single-stream limit, one value
  that bounds every flow alike.

One routine, :func:`_max_min_shares`, computes that allocation: a
per-sink waterfill round that ignores sources, which is the answer
whenever no source NIC saturates, and otherwise progressive-filling
rounds from zero.

The network is *event-lazy*: rates are only recomputed when the flow
set or a capacity changes.  Between recomputations every flow drains
linearly, so the network arms exactly one timer at the earliest of
(next flow completion, next sink capacity transition) and advances all
flow state vectorially in numpy when it fires.  Per state change the
work is O(flows) of numpy, never O(flows) of Python — the property that
makes 16 384-writer experiments feasible.

Churn (flow arrival and departure) gets two further optimizations:

* **Same-instant coalescing** — mutations mark the affected sinks dirty
  and defer the settle to a zero-delay, low-priority calendar entry, so
  a writer group releasing N flows at one simulated timestamp triggers
  one reallocation instead of N.
* **Incremental reallocation** — while no source NIC is saturated the
  max-min allocation decomposes per sink, so a settle whose dirty set
  is small recomputes only the affected sinks' *canonical shares* and
  patches the rates in place.  The canonical-share arithmetic (see
  :func:`_waterfill_sink_shares`) is grouping-independent, which makes
  the patched result bit-identical to a full batch recomputation — the
  repo's parallel==serial determinism contract depends on that.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional, Protocol, Set, Tuple

import numpy as np

from repro.errors import OstFailedError
from repro.sim.engine import Alarm
from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Environment, _Callback

__all__ = [
    "FlowNetwork",
    "FlowStats",
    "SinkPool",
    "UniformSinkPool",
    "max_min_fair_rates",
]

_EPS_BYTES = 1e-3  # flows within this many bytes of done are done
_BIG_RATE = 1e18  # rate for flows constrained by nothing
# A source is treated as unsaturated only when its load clears capacity
# by this relative margin; anything tighter goes on to the filling
# rounds of _max_min_shares.  The margin is part of the allocation
# *decision*, applied identically by the batch and incremental paths,
# so both always pick the same regime.
_SRC_HEADROOM = 1.0 - 1e-9
# FlowNetwork's slot-indexed columns: (attribute, free-slot fill, dtype).
_SLOT_COLUMNS = (
    ("_src", 0, np.int64),  # source index
    ("_dst", 0, np.int64),  # sink index
    ("_remaining", 0.0, np.float64),  # undelivered bytes
    ("_rate", 0.0, np.float64),  # allocated bytes/s
    ("_tenant", -1, np.int64),  # QoS tenant tag, -1 untagged
    ("_active", False, bool),
    ("_fid", -1, np.int64),  # flow id
    ("_nbytes", 0.0, np.float64),  # total bytes (FlowStats.nbytes)
    ("_t0", 0.0, np.float64),  # start time
)


@dataclass(frozen=True)
class FlowStats:
    """Completion record delivered as the flow event's value."""

    flow_id: int
    source: int
    sink: int
    nbytes: float
    start_time: float
    end_time: float

    @property
    def duration(self) -> float:
        return self.end_time - self.start_time


class SinkPool(Protocol):
    """State provider for the sink side of the network.

    One pool manages *all* sinks with vectorized state so the fabric
    never loops over sinks in Python.  The Lustre OST pool implements
    this protocol; tests use :class:`UniformSinkPool`.
    """

    n_sinks: int

    def advance(self, dt: float, inflow: np.ndarray, now: float) -> None:
        """Integrate internal state over ``dt`` given the inflow rates."""

    def capacities(self, counts: np.ndarray, now: float) -> np.ndarray:
        """Current ingest capacity per sink, given stream counts."""

    def next_transition(
        self, inflow: np.ndarray, counts: np.ndarray, now: float
    ) -> float:
        """Seconds until some sink's capacity will change, or ``inf``."""


class UniformSinkPool:
    """Trivial pool: fixed, state-free capacity per sink."""

    def __init__(self, n_sinks: int, capacity: float):
        if n_sinks < 1:
            raise ValueError("n_sinks must be >= 1")
        if not capacity > 0:
            raise ValueError("capacity must be positive")
        self.n_sinks = n_sinks
        self._caps = np.full(n_sinks, float(capacity))

    def advance(self, dt: float, inflow: np.ndarray, now: float) -> None:
        pass

    def capacities(self, counts: np.ndarray, now: float) -> np.ndarray:
        return self._caps

    def next_transition(
        self, inflow: np.ndarray, counts: np.ndarray, now: float
    ) -> float:
        return float("inf")


def _waterfill_sink_shares(
    dst_idx: np.ndarray,
    flow_cap: float | np.ndarray,
    cap_dst: np.ndarray,
    cnt_dst: np.ndarray,
) -> np.ndarray:
    """Canonical per-sink fair-share levels, ignoring source capacities.

    For each sink the share is the waterfill level: flows whose cap
    fits under the level are frozen at their caps, the rest split the
    remaining capacity evenly.  Iteration freezes caps in rising
    waves until a fixed point.

    The arithmetic is deliberately *grouping-independent*: the
    committed (cap-frozen) bandwidth per sink is accumulated with
    ``np.bincount`` over flows in ascending slot order, and every
    iteration recomputes shares from scratch out of the frozen set.
    Recomputing one sink's share from just that sink's flows therefore
    reproduces the exact same floats as a pass over the whole flow set
    — the property the incremental reallocator relies on for
    bit-identity with the batch allocator.

    ``dst_idx`` describes the flow subset (in ascending slot order) and
    ``flow_cap`` its caps, one for every flow or one per flow;
    ``cap_dst``/``cnt_dst`` are full-size per-sink arrays,
    where ``cnt_dst`` counts only the subset's flows.  Sinks with
    infinite capacity or zero count get an infinite share.
    """
    n_dst = len(cap_dst)
    infinite = ~np.isfinite(cap_dst)
    share = np.divide(cap_dst, cnt_dst, out=np.full(n_dst, np.inf),
                      where=cnt_dst > 0)
    share[infinite] = np.inf
    n_flows = len(dst_idx)
    if n_flows == 0:
        return share
    frozen = np.zeros(n_flows, dtype=bool)
    for _ in range(n_flows + 1):
        newly = ~frozen & (flow_cap <= share[dst_idx])
        if not newly.any():
            break
        frozen |= newly
        order = np.nonzero(frozen)[0]  # ascending slot order
        weights = (flow_cap[order] if np.ndim(flow_cap)
                   else np.full(order.size, flow_cap))
        committed = np.bincount(dst_idx[order], weights=weights,
                                minlength=n_dst)
        live = cnt_dst - np.bincount(dst_idx[order], minlength=n_dst)
        with np.errstate(invalid="ignore"):  # inf - inf at infinite sinks
            share = np.divide(cap_dst - committed, live,
                              out=np.full(n_dst, np.inf), where=live > 0)
        share[infinite] = np.inf
        np.maximum(share, 0.0, out=share)
    return share


def _max_min_shares(
    src_idx: np.ndarray,
    dst_idx: np.ndarray,
    cap_src: np.ndarray,
    cap_dst: np.ndarray,
    flow_cap: float | np.ndarray = np.inf,
    counts_src: Optional[np.ndarray] = None,
    counts_dst: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Max-min fair rates plus, when available, canonical sink shares.

    The one batch allocator: a waterfill round, then, only if a source
    binds, filling rounds.

    1. **Waterfill round.**  :func:`_waterfill_sink_shares` levels every
       sink ignoring source capacities.  If that leaves every source
       clear of the ``_SRC_HEADROOM`` margin, it is the allocation and
       ``(rates, share_dst)`` is returned, with

           ``rates == minimum(flow_cap, share_dst[dst_idx], _BIG_RATE)``

       — the regime :class:`FlowNetwork`'s incremental path can patch
       locally.
    2. **Filling rounds.**  Otherwise source saturation couples the
       sinks, and progressive filling runs from level 0: every live
       flow rises by the smallest residual share (or flow-cap gap),
       and the flows at a saturated resource or at their cap freeze.
       Returns ``(rates, None)``.

    ``flow_cap`` is one cap for every flow or an array of per-flow caps.
    """
    n_flows = len(src_idx)
    n_src = len(cap_src)
    n_dst = len(cap_dst)
    if n_flows == 0:
        return np.zeros(0), np.full(n_dst, np.inf)
    cap_dst = np.asarray(cap_dst, dtype=np.float64)
    cap_src = np.asarray(cap_src, dtype=np.float64)
    # Per-resource live-flow counts; the filling rounds update them in
    # place (subtracting the newly frozen flows), so they are copies.
    if counts_dst is None:
        cnt_dst = np.bincount(dst_idx, minlength=n_dst).astype(np.float64)
    else:
        cnt_dst = np.array(counts_dst, dtype=np.float64)
    share_dst = _waterfill_sink_shares(dst_idx, flow_cap, cap_dst, cnt_dst)
    rates = np.minimum(flow_cap, share_dst[dst_idx])
    np.minimum(rates, _BIG_RATE, out=rates)
    src_load = np.bincount(src_idx, weights=rates, minlength=n_src)
    if np.all(src_load <= cap_src * _SRC_HEADROOM):
        return rates, share_dst

    if counts_src is None:
        cnt_src = np.bincount(src_idx, minlength=n_src).astype(np.float64)
    else:
        cnt_src = np.array(counts_src, dtype=np.float64)
    residual_src = cap_src.copy()
    residual_dst = cap_dst.copy()
    caps = np.concatenate((cap_src, cap_dst))
    tol = 1e-12 * float(np.max(caps[np.isfinite(caps)], initial=1.0))
    if not np.ndim(flow_cap):
        flow_cap = np.full(n_flows, float(flow_cap))
    # Each round's work is O(live flows), so the total across rounds is
    # O(flows), not O(rounds x flows).
    rates = np.zeros(n_flows)
    live_idx = np.arange(n_flows)
    src_live, dst_live, fcap_live = src_idx, dst_idx, flow_cap
    level = 0.0
    while live_idx.size:
        with np.errstate(divide="ignore", invalid="ignore"):
            inc_src = np.where(cnt_src > 0, residual_src / cnt_src, np.inf)
            inc_dst = np.where(cnt_dst > 0, residual_dst / cnt_dst, np.inf)
        inc = min(
            float(inc_src.min()),
            float(inc_dst.min()),
            float(fcap_live.min()) - level,
        )
        if not np.isfinite(inc):
            # Remaining flows touch only infinite-capacity resources.
            rates[live_idx] = np.minimum(fcap_live, _BIG_RATE)
            break
        inc = max(inc, 0.0)
        level += inc
        residual_src -= inc * cnt_src
        residual_dst -= inc * cnt_dst
        sat_src = residual_src <= tol
        sat_dst = residual_dst <= tol
        newly = sat_src[src_live] | sat_dst[dst_live] | (
            fcap_live - level <= tol
        )
        if not newly.any():
            # Freezing none should not happen with exact arithmetic;
            # freeze everything anyway to guarantee progress.
            newly = np.ones(live_idx.size, dtype=bool)
        frozen_idx = live_idx[newly]
        rates[frozen_idx] = np.minimum(level, flow_cap[frozen_idx])
        cnt_src -= np.bincount(src_live[newly], minlength=n_src)
        cnt_dst -= np.bincount(dst_live[newly], minlength=n_dst)
        keep = ~newly
        live_idx = live_idx[keep]
        src_live = src_live[keep]
        dst_live = dst_live[keep]
        fcap_live = fcap_live[keep]
    return rates, None


def max_min_fair_rates(
    src_idx: np.ndarray,
    dst_idx: np.ndarray,
    cap_src: np.ndarray,
    cap_dst: np.ndarray,
    flow_cap: float | np.ndarray = np.inf,
    counts_src: Optional[np.ndarray] = None,
    counts_dst: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Max-min fair rates for flows over a bipartite capacity graph.

    Parameters
    ----------
    src_idx, dst_idx:
        Per-flow endpoint indices into ``cap_src`` / ``cap_dst``.
    cap_src, cap_dst:
        Resource capacities (bytes/s).  ``inf`` entries are legal.
    flow_cap:
        Rate ceiling: one value for every flow, or one per flow.
    counts_src, counts_dst:
        Optional precomputed per-resource flow counts (what
        ``np.bincount(src_idx, minlength=len(cap_src))`` would return).
        The flow network maintains these incrementally and passes them
        in so the allocator never re-derives them.

    Returns
    -------
    rates:
        Per-flow allocated rate, same length as ``src_idx``.
    """
    return _max_min_shares(
        src_idx, dst_idx, cap_src, cap_dst, flow_cap,
        counts_src=counts_src, counts_dst=counts_dst,
    )[0]


class FlowNetwork:
    """The live flow manager bound to a simulation environment.

    Parameters
    ----------
    env:
        Simulation environment.
    source_capacities:
        Per-source (node NIC) capacity array, bytes/s.
    sink_pool:
        Provider of sink-side capacities and state (the OST pool).
    flow_cap:
        Rate ceiling of every flow; models the client's single-stream
        limit.

    Notes
    -----
    Flow mutations (:meth:`start_flow`, :meth:`cancel_flow`,
    :meth:`fail_sink`) do not resettle synchronously: they record the
    affected sinks and defer one settle to the end of the current
    simulated instant (a zero-delay, priority-2 calendar entry, which
    sorts after every same-instant control event).  All N flows a
    writer group releases at one timestamp are therefore priced at one
    reallocation.  :meth:`invalidate` and :meth:`sync` remain
    synchronous — callers use them to bring accounting up to *now*
    before reading state.

    A *repeat settle* is one requested at the instant the last full
    settle ran, with no dirty sink, no tenant-limit change and no
    :meth:`adjust_flow_bytes` since.  Nothing has drained (``dt == 0``)
    and the allocation, the completion deadline and the pool's next
    transition would come out as the same floats, so the settle only
    withdraws a pending deferred settle, re-arms the delay the full
    settle recorded, and runs the metrics, the zero-flow trace records
    and the ``on_settle`` hook.  :meth:`sync`, the deferred settle and
    the timer take it; :meth:`invalidate` never does.
    ``settle_count`` counts settle requests served, repeats included.
    """

    def __init__(
        self,
        env: "Environment",
        source_capacities: np.ndarray,
        sink_pool: SinkPool,
        flow_cap: float = np.inf,
    ):
        self.env = env
        self.pool = sink_pool
        self._cap_src = np.asarray(source_capacities, dtype=np.float64).copy()
        if not (self._cap_src > 0).all():
            raise ValueError("source capacities must be positive")
        self.flow_cap = float(flow_cap)
        if not self.flow_cap > 0:
            raise ValueError("flow_cap must be positive")
        self.n_sources = len(self._cap_src)
        self._src_limit = self._cap_src * _SRC_HEADROOM
        self.n_sinks = sink_pool.n_sinks

        # Per-flow state and records in slot-indexed columns (see
        # _SLOT_COLUMNS); the fid -> slot map is the only per-flow dict.
        cap0 = 64
        for name, fill, dtype in _SLOT_COLUMNS:
            setattr(self, name, np.full(cap0, fill, dtype=dtype))
        self._events: list = [None] * cap0
        self._free: list[int] = list(range(cap0 - 1, -1, -1))
        self._slot_of: Dict[int, int] = {}

        self._next_id = 0
        self._last_settle = env.now
        self._stall_now = -1.0
        self._stall_streak = 0
        self._inflow = np.zeros(self.n_sinks, dtype=np.float64)
        # Per-sink / per-source active stream counts, maintained
        # incrementally on start/cancel/complete — never re-derived
        # with a bincount over the flow set.
        self._counts = np.zeros(self.n_sinks, dtype=np.int64)
        self._src_counts = np.zeros(self.n_sources, dtype=np.int64)
        # Read-only copy of `_counts` for the sink pool (see _settle).
        self._counts_snap: Optional[np.ndarray] = None
        # The flow-set generation keys the active-slot index cache and
        # the QoS shadow memo.  The current allocation is stale when a
        # sink's flow membership changed since it was computed (a
        # dirty sink, below), the tenant limits changed, or a sink's
        # capacity differs from `_last_caps`; with none of these a
        # settle skips reallocation.
        self._flowset_gen = 0
        self._limits_changed = False
        self._act_gen = -1
        self._act = np.empty(0, dtype=np.intp)
        self._last_caps: Optional[np.ndarray] = None
        # Incremental-reallocation state: whether the current
        # allocation was computed on the sink-bound fast path with every
        # source unsaturated, and the set of sinks whose flow membership
        # changed since.
        self._shares_valid = False
        self._dirty_sinks: Set[int] = set()
        # Above this many dirty sinks a full vectorized batch pass is
        # cheaper than gathering the affected subset.
        self._incr_max_dirty = max(4, self.n_sinks // 8)
        self._sink_lut = np.full(self.n_sinks, -1, dtype=np.intp)
        # The deferred settle's calendar entry (the handle
        # ``env.schedule_callback`` returns; a synchronous settle
        # withdraws it with ``cancel()``), and the "next state change"
        # deadline, re-pushed only when a settle predicts it earlier.
        self._settle_pending = False
        self._settle_event: Optional[_Callback] = None
        self._timer = Alarm(env, self._on_timer)
        # The instant of the last full settle and the delay it armed,
        # which a repeat settle re-arms; None once something a dirty
        # sink or `_limits_changed` does not record (a flow's byte
        # count, an out-of-band pool change) may have moved since.
        self._settled_at: Optional[float] = None
        self._settled_delay = np.inf
        # Rate-change watchers (see watch_flow), in registration-order
        # columns -- fid, callback, slot, last notified rate, live flag
        # -- so a settle scans them with one fancy-index + compare;
        # `_watchers` maps fid -> column.  An unwatch leaves a hole,
        # compacted away by the scan once holes outnumber live ones.
        self._watchers: Dict[int, int] = {}
        self._w_fid: list = []
        self._w_cb: list = []
        self._w_slot = np.zeros(16, dtype=np.intp)
        self._w_last = np.zeros(16, dtype=np.float64)
        self._w_live = np.zeros(16, dtype=bool)
        self._w_holes = 0
        # QoS: per-tenant aggregate rate limits (bytes/s, indexed by
        # tenant id) installed by the control plane, plus the byte
        # ledgers the graceful-degradation contract reports from.  All
        # None until :meth:`set_tenant_limits` is first called — every
        # QoS touch point below is guarded on that, so a fabric that
        # never sees a limit runs the exact pre-QoS code path
        # (bit-identity when QoS is disabled).
        self._tenant_limits: Optional[np.ndarray] = None
        self._tenant_throttle_rate: Optional[np.ndarray] = None
        # The shadow uncapped allocation of the last QoS pass, as
        # ``(flow-set generation, sink caps, rates)``: it depends on
        # nothing else, so _qos_rates reuses it while both stand.
        self._shadow: Optional[Tuple[int, np.ndarray, np.ndarray]] = None
        self.tenant_served: Optional[np.ndarray] = None
        self.tenant_throttled: Optional[np.ndarray] = None
        self.total_bytes_delivered = 0.0
        self.settle_count = 0
        self.realloc_count = 0
        self.incremental_count = 0  # reallocs served by the patch path
        self.coalesced_count = 0  # mutations folded into a pending settle
        # Post-settle observation hook: called as ``hook(now)`` at the
        # end of every settle, when flow/pool state is already advanced
        # to now.  Readers hanging here (OnlineMonitor) observe without
        # scheduling events or forcing extra settles, so attaching one
        # cannot perturb the simulation.  Hooks chain by saving and
        # calling the previous value.
        self.on_settle = None
        # Instrument handles, resolved once from the environment's
        # registry so the per-settle cost when attached is one check
        # plus a few dict-free increments.  The ones the recording
        # sites check are None when telemetry is off.
        reg = env.metrics
        self._m_settles = self._m_coalesced = self._m_realloc_batch = None
        if reg is not None:
            self._m_settles = reg.counter("fabric.settles")
            self._m_flows = reg.gauge("fabric.active_flows")
            self._m_coalesced = reg.counter("fabric.coalesced_settles")
            self._m_realloc_batch = reg.counter(
                "fabric.reallocs", kind="batch"
            )
            self._m_realloc_incr = reg.counter(
                "fabric.reallocs", kind="incremental"
            )

    # -- public API ------------------------------------------------------
    @property
    def active_flow_count(self) -> int:
        return len(self._slot_of)

    def sink_stream_counts(self) -> np.ndarray:
        """Current active stream count per sink (snapshot)."""
        return self._counts.copy()

    def sink_inflow(self) -> np.ndarray:
        """Current allocated inflow per sink, bytes/s (snapshot)."""
        if self._settle_pending:
            self._settle()
        return self._inflow.copy()

    def set_tenant_limits(self, limits: Optional[np.ndarray]) -> None:
        """Install (or clear, with None) per-tenant aggregate rate caps.

        ``limits[t]`` bounds the summed rate of every active flow
        tagged with tenant ``t``; ``inf`` entries leave a tenant
        unconstrained.  The cap composes with max-min fairness as an
        equal per-flow split of the tenant budget, so within a tenant
        flows stay mutually fair.  Limits different from the installed
        ones mark the allocation stale, so the settle requested here
        reallocates and the change takes effect at the end of the
        current instant; the interval since the last advance is
        integrated at the old throttle rate first.  Limits equal to
        the installed ones (``None``
        again, or an ``array_equal`` array) keep the current allocation
        and throttle rate: the settle still runs, takes the
        skip-reallocation path and re-arms the completion timer from
        the bytes left now, exactly as a forced reallocation to the
        same rates would.  Negative or NaN limits raise ``ValueError``.

        Byte ledgers (``tenant_served`` / ``tenant_throttled``)
        accumulate across calls while the tenant count is stable; they
        survive a ``set_tenant_limits(None)`` so post-run accounting
        can still read them.
        """
        if limits is not None:
            limits = np.asarray(limits, dtype=np.float64).copy()
            if np.isnan(limits).any() or (limits < 0).any():
                raise ValueError("tenant limits must be non-negative, not NaN")
        old = self._tenant_limits
        if limits is None:
            same = old is None
        else:
            same = old is not None and np.array_equal(limits, old)
        if not same:
            if old is not None:
                # Integrate the elapsed interval at the old throttle
                # rate before the change resets it.
                self._advance_only()
            self._tenant_limits = limits
            if limits is None:
                self._tenant_throttle_rate = None
            else:
                n = len(limits)
                if self.tenant_served is None or len(self.tenant_served) != n:
                    self.tenant_served = np.zeros(n, dtype=np.float64)
                    self.tenant_throttled = np.zeros(n, dtype=np.float64)
                self._tenant_throttle_rate = np.zeros(n, dtype=np.float64)
            self._limits_changed = True
            self._shares_valid = False
        self._request_settle()

    def tenant_accounting(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(served_bytes, throttled_bytes)`` per tenant, advanced to now.

        ``throttled`` integrates the gap between what the uncapped
        max-min allocation would have granted each tenant and what the
        QoS-capped allocation did grant — the bytes backpressure
        deferred, never errored.  Zero-length arrays before any limits
        were installed.
        """
        if self.tenant_served is None:
            return np.zeros(0), np.zeros(0)
        if self._tenant_limits is not None:
            self._advance_only()
        return self.tenant_served.copy(), self.tenant_throttled.copy()

    def start_flow(
        self,
        source: int,
        sink: int,
        nbytes: float,
        tenant: int = -1,
    ) -> Event:
        """Begin a transfer; the returned event fires with a FlowStats."""
        return self.start_flow_with_id(source, sink, nbytes, tenant)[0]

    def start_flow_with_id(
        self,
        source: int,
        sink: int,
        nbytes: float,
        tenant: int = -1,
    ) -> Tuple[Event, int]:
        """Like :meth:`start_flow` but also returns the flow id.

        Fault-aware callers keep the id so they can :meth:`cancel_flow`
        a transfer whose deadline expired.  ``tenant`` tags the flow
        for the QoS control plane; ``-1`` (the default) means untagged
        — never subject to a tenant limit.
        """
        if not 0 <= source < self.n_sources:
            raise IndexError(f"source {source} out of range")
        if not 0 <= sink < self.n_sinks:
            raise IndexError(f"sink {sink} out of range")
        if not nbytes >= 0:
            raise ValueError("nbytes must be non-negative")
        ev = Event(self.env)
        fid = self._next_id
        self._next_id += 1
        if nbytes <= _EPS_BYTES:
            ev.succeed(
                FlowStats(fid, source, sink, nbytes, self.env.now, self.env.now)
            )
            return ev, fid
        slot = self._alloc_slot()
        self._src[slot] = source
        self._dst[slot] = sink
        self._remaining[slot] = float(nbytes)
        self._rate[slot] = 0.0
        self._tenant[slot] = int(tenant)
        self._active[slot] = True
        self._fid[slot] = fid
        self._nbytes[slot] = float(nbytes)
        self._t0[slot] = self.env.now
        self._events[slot] = ev
        self._slot_of[fid] = slot
        self._counts[sink] += 1
        self._src_counts[source] += 1
        self._counts_snap = None
        self._flowset_gen += 1
        self._dirty_sinks.add(sink)
        tr = self.env.tracer
        if tr is not None:
            tr.begin(
                "flow",
                cat="fabric",
                pid=f"ost/{sink}",
                tid=f"flow {fid}",
                args={"source": source, "nbytes": float(nbytes)},
            )
        self._request_settle()
        return ev, fid

    def in_flight(self, flow_id: int) -> bool:
        """True while the flow is still moving bytes."""
        return flow_id in self._slot_of

    def cancel_flow(self, flow_id: int) -> float:
        """Abort a flow; returns the bytes left undelivered.

        The flow's event fails with :class:`~repro.sim.events.EventAborted`.
        """
        if flow_id not in self._slot_of:
            raise KeyError(f"unknown or finished flow {flow_id}")
        self._advance_only()
        slot = self._slot_of[flow_id]
        left = float(self._remaining[slot])
        (ev,) = self._retire(np.array([slot]))[1]
        tr = self.env.tracer
        if tr is not None:
            tr.end(
                "flow",
                cat="fabric",
                pid=f"ost/{int(self._dst[slot])}",
                tid=f"flow {flow_id}",
                args={"cancelled": True, "undelivered": left},
            )
        ev.abort(("cancelled", flow_id))
        self._request_settle()
        return left

    def fail_sink(self, sink: int) -> float:
        """Fail every in-flight flow to *sink* (fail-stop semantics).

        Each affected flow's event **fails** with
        :class:`~repro.errors.OstFailedError` — waiters see the error
        raised at their yield point instead of the completion silently
        never arriving.  Returns the total bytes left undelivered.
        """
        self._advance_only()
        act = self._active_slots()
        victims = act[self._dst[act] == sink]
        if victims.size == 0:
            self._request_settle()
            return 0.0
        tr = self.env.tracer
        traced = tr is not None
        total_left = 0.0
        lefts = self._remaining[victims].tolist()
        fids, events = self._retire(victims)
        for fid, ev, left in zip(fids, events, lefts):
            total_left += left
            if traced:
                tr.end(
                    "flow",
                    cat="fabric",
                    pid=f"ost/{sink}",
                    tid=f"flow {fid}",
                    args={"failed": True, "undelivered": left},
                )
            ev.fail(OstFailedError(sink, f"ost {sink} failed mid-transfer"))
        self._request_settle()
        return total_left

    def invalidate(self) -> None:
        """Resettle now (a capacity changed out-of-band).

        Synchronous: any deferred settle is folded in, and accounting
        (flow progress, pool state, completions) is current on return.
        Always a full settle, even at an instant already settled: the
        pool binds it for multiplier pushes and fault transitions,
        which change sink state the fabric cannot see.
        """
        self._settled_at = None
        self._settle()

    def sync(self) -> None:
        """Bring accounting up to now, for a reader of pool or flow state.

        Like :meth:`invalidate`, but for callers that changed nothing
        out-of-band: at an instant already settled, with no mutation
        since, it is a repeat settle (see the class Notes) and does no
        pool or allocator work.
        """
        self._settle()

    def flow_progress(self, flow_id: int) -> Tuple[float, float]:
        """``(delivered_bytes, current_rate)`` of a live flow, now.

        Pure query: flows drain linearly between settles, so progress
        at *now* is derived arithmetically from the last settle's state
        without mutating anything or forcing a reallocation.  Raises
        ``KeyError`` for unknown/finished flows.
        """
        slot = self._slot_of.get(flow_id)
        if slot is None:
            raise KeyError(f"unknown or finished flow {flow_id}")
        rate = float(self._rate[slot])
        remaining = float(self._remaining[slot]) - rate * (
            self.env.now - self._last_settle
        )
        return float(self._nbytes[slot]) - remaining, rate

    def adjust_flow_bytes(self, flow_id: int, delta: float) -> float:
        """Shrink (or grow) a live flow's total byte count by ``delta``.

        Progress is advanced to *now* first, then the adjustment lands
        on the undelivered tail — the paper's steering steal maps to a
        negative ``delta`` truncating the bytes not yet streamed.  The
        flow's rate (and every other flow's) is unchanged, so the
        deferred settle this requests rides the skip-reallocation fast
        path and merely re-arms the completion timer.  Returns the new
        remaining byte count.
        """
        slot = self._slot_of.get(flow_id)
        if slot is None:
            raise KeyError(f"unknown or finished flow {flow_id}")
        self._advance_only()
        new_remaining = float(self._remaining[slot]) + float(delta)
        if not new_remaining >= -_EPS_BYTES:
            raise ValueError(
                f"flow {flow_id}: adjustment {delta} exceeds the "
                f"{self._remaining[slot]} undelivered bytes"
            )
        self._remaining[slot] = new_remaining
        self._nbytes[slot] += float(delta)
        self._settled_at = None  # the completion deadline moved
        self._request_settle()
        return new_remaining

    def watch_flow(self, flow_id: int, callback) -> None:
        """Call ``callback(now, new_rate)`` whenever the flow's rate
        changes at a settle.

        One watcher per flow.  The callback runs at the end of the
        settle (state already advanced to now); it must not resettle
        synchronously, but may start flows, adjust byte counts or
        schedule calendar entries.  The watcher is dropped when the
        flow completes, cancels or fails.  Aggregate-flow owners (the
        adaptive transport's group streams) hang here to re-predict
        member-boundary crossings without forcing extra settles.
        """
        slot = self._slot_of.get(flow_id)
        if slot is None:
            raise KeyError(f"unknown or finished flow {flow_id}")
        i = self._watchers.get(flow_id)  # a re-watch keeps its column
        if i is None:
            i = len(self._w_fid)
            if i == len(self._w_slot):
                self._w_slot = np.resize(self._w_slot, 2 * i)
                self._w_last = np.resize(self._w_last, 2 * i)
                self._w_live = np.resize(self._w_live, 2 * i)
            self._watchers[flow_id] = i
            self._w_fid.append(flow_id)
            self._w_cb.append(callback)
            self._w_slot[i] = slot
            self._w_live[i] = True
        else:
            self._w_cb[i] = callback
        self._w_last[i] = float(self._rate[slot])

    def unwatch_flow(self, flow_id: int) -> None:
        i = self._watchers.pop(flow_id, None)
        if i is not None:
            self._w_cb[i] = None
            self._w_live[i] = False
            self._w_holes += 1

    def _notify_watchers(self, now: float) -> None:
        """Call each watcher whose flow's rate changed, in registration
        order."""
        if self._w_holes > len(self._watchers):
            live = self._w_live[:len(self._w_fid)]
            keep = live.nonzero()[0].tolist()
            self._w_fid = [self._w_fid[i] for i in keep]
            self._w_cb = [self._w_cb[i] for i in keep]
            n = len(keep)
            self._w_slot[:n] = self._w_slot[keep]
            self._w_last[:n] = self._w_last[keep]
            self._w_live[:n] = True
            self._watchers = {f: i for i, f in enumerate(self._w_fid)}
            self._w_holes = 0
        n = len(self._w_fid)
        cur = self._rate[self._w_slot[:n]]
        changed = ((cur != self._w_last[:n]) & self._w_live[:n]).nonzero()[0]
        for i in changed.tolist():
            r = float(cur[i])
            cb = self._w_cb[i]
            if cb is None:  # unwatched by an earlier callback ...
                i = self._watchers.get(self._w_fid[i])
                if i is None:
                    continue
                cb = self._w_cb[i]  # ... and watched again since
            self._w_last[i] = r
            cb(now, r)

    # -- internals ---------------------------------------------------------
    def _alloc_slot(self) -> int:
        if not self._free:
            old = len(self._active)
            new = old * 2
            for name, fill, dtype in _SLOT_COLUMNS:
                arr = getattr(self, name)
                grown = np.full(new, fill, dtype=dtype)
                grown[:old] = arr
                setattr(self, name, grown)
            self._events.extend([None] * old)
            self._free.extend(range(new - 1, old - 1, -1))
        return self._free.pop()

    def _active_slots(self) -> np.ndarray:
        """Ascending active slots, cached per flow-set generation."""
        if self._act_gen != self._flowset_gen:
            self._act = self._active.nonzero()[0]
            self._act_gen = self._flowset_gen
        return self._act

    def _retire(self, slots: np.ndarray) -> Tuple[list, list]:
        """Drop the flows at ascending *slots* from the flow set.

        Counts, free list and dirty sinks are updated in one vectorized
        pass and watchers dropped; returns the flows' ids and events for
        the caller to fire in slot order.
        """
        dst = self._dst[slots]
        self._active[slots] = False
        self._rate[slots] = 0.0
        np.subtract.at(self._counts, dst, 1)
        np.subtract.at(self._src_counts, self._src[slots], 1)
        self._counts_snap = None
        self._flowset_gen += 1
        self._dirty_sinks.update(dst.tolist())
        slot_list = slots.tolist()
        self._free.extend(slot_list)
        fids = self._fid[slots].tolist()
        events = [self._events[s] for s in slot_list]
        for fid, s in zip(fids, slot_list):
            self._events[s] = None
            del self._slot_of[fid]
            self.unwatch_flow(fid)
        return fids, events

    def _request_settle(self) -> None:
        """Defer one settle to the end of the current instant.

        The settle runs as a zero-delay priority-2 calendar entry, i.e.
        after every priority-1 event already scheduled (or scheduled
        later) at this timestamp — so all same-instant mutations share
        it.  A synchronous :meth:`_settle` in the meantime supersedes
        the deferred one (its calendar entry is cancelled).
        """
        if self._settle_pending:
            self.coalesced_count += 1
            if self._m_coalesced is not None:
                self._m_coalesced.inc()
            return
        self._settle_pending = True
        self._settle_event = self.env.schedule_callback(
            0.0, self._on_deferred_settle, priority=2
        )

    def _on_deferred_settle(self) -> None:
        self._settle_pending = False
        self._settle_event = None
        self._settle()

    def _advance_only(self) -> None:
        """Advance flow progress and pool state to now, no reallocation."""
        now = self.env.now
        dt = now - self._last_settle
        if dt > 0:
            act = self._active_slots()
            delivered = self._rate[act] * dt
            self._remaining[act] -= delivered
            self.total_bytes_delivered += float(delivered.sum())
            if self._tenant_limits is not None:
                ten = self._tenant[act]
                tagged = ten >= 0
                if tagged.any():
                    self.tenant_served += np.bincount(
                        ten[tagged], weights=delivered[tagged],
                        minlength=len(self.tenant_served),
                    )
                self.tenant_throttled += self._tenant_throttle_rate * dt
            self.pool.advance(dt, self._inflow, now)
        self._last_settle = now

    def _settle(self) -> None:
        """Advance state to now, complete finished flows, reallocate.

        A repeat settle (see the class Notes) re-arms the recorded
        deadline instead: at the instant already settled, with nothing
        changed since, the full pass would reproduce every float.
        """
        if self._settle_pending:
            # Folding a deferred settle into this synchronous one;
            # withdraw its calendar entry instead of leaving a stale
            # firing behind.
            self._settle_pending = False
            ev, self._settle_event = self._settle_event, None
            if ev is not None:
                ev.cancel()
        now = self.env.now
        self.settle_count += 1
        tr = self.env.tracer
        traced = tr is not None
        repeat = (
            now == self._settled_at
            and not self._dirty_sinks
            and not self._limits_changed
        )
        if repeat:
            # dt == 0 and the flow set, remaining bytes, limits and pool
            # state are those of the last full settle: no flow drains,
            # and the allocation and both deadlines come out the same.
            n_live = len(self._slot_of)
            reallocated = not n_live  # the zero-flow branch below
            delay = self._settled_delay
        else:
            self._advance_only()
            # Complete drained flows: bookkeeping in one vectorized
            # pass, then each flow's event in ascending slot order.
            act_slots = self._active_slots()
            remaining = self._remaining[act_slots]
            done = act_slots[remaining <= _EPS_BYTES]
            if done.size:
                src = self._src[done].tolist()
                dst = self._dst[done].tolist()
                nbytes = self._nbytes[done].tolist()
                t0s = self._t0[done].tolist()
                fids, events = self._retire(done)
                for fid, ev, s, d, nb, t0 in zip(fids, events, src, dst,
                                                 nbytes, t0s):
                    if traced:
                        tr.end("flow", cat="fabric", pid=f"ost/{d}",
                               tid=f"flow {fid}",
                               args={"duration": now - t0})
                    ev.succeed(FlowStats(fid, s, d, nb, t0, now))
                act_slots = self._active_slots()
                remaining = self._remaining[act_slots]

            # The pool keeps the snapshot it is given (its advance()
            # uses the counts from the *last* settle) and memoizes on
            # its identity, so it never sees the live incremental
            # array.  capacities() is also where the pool updates
            # internal state (e.g. the cache-full hysteresis flag) — it
            # must run even with no flows, or a drained cache keeps
            # reporting an overdue transition and the timer livelocks
            # at delay 0.
            counts = self._counts_snap
            if counts is None:
                counts = self._counts_snap = self._counts.copy()
                counts.flags.writeable = False
            caps = np.asarray(
                self.pool.capacities(counts, now), dtype=np.float64
            )
            n_live = int(act_slots.size)
            t_complete = np.inf
            reallocated = True
            if not n_live:
                self._inflow = np.zeros(self.n_sinks, dtype=np.float64)
                self._last_caps = None
                self._shares_valid = False
                self._dirty_sinks.clear()
                self._limits_changed = False
                if self._tenant_throttle_rate is not None:
                    self._tenant_throttle_rate[:] = 0.0
            else:
                last = self._last_caps
                changed = (None if last is None
                           else (caps != last).nonzero()[0])
                if (
                    not self._dirty_sinks
                    and not self._limits_changed
                    and changed is not None
                    and not changed.size
                ):
                    # Neither the flow set, the tenant limits nor any
                    # capacity changed since the current allocation was
                    # computed (a pool transition timer fired early, an
                    # out-of-band invalidate was a no-op, or a QoS tick
                    # pushed the limits already in force): existing
                    # rates are still the allocation, so skip straight
                    # to re-arming the timer.
                    rates = self._rate[act_slots]
                    reallocated = False
                else:
                    rates = self._reallocate(act_slots, counts, caps,
                                             changed)
                finish = np.divide(remaining, rates,
                                   out=np.full(rates.shape, np.inf),
                                   where=rates > 0)
                t_complete = float(finish.min())
            t_pool = self.pool.next_transition(self._inflow, counts, now)
            delay = min(t_complete, t_pool)
            # Recorded before the watchers run: one that adjusts a
            # flow's bytes clears the record again.
            self._settled_at = now
            self._settled_delay = delay
        if traced and reallocated:
            total = float(self._inflow.sum())
            tr.instant(
                "reallocate", cat="fabric", pid="fabric", tid="settle",
                args={"flows": n_live, "total_inflow": total},
            )
            tr.counter("inflow", pid="fabric",
                       values={"bytes_per_s": total})
        self._arm_timer(delay)
        if self._m_settles is not None:
            self._m_settles.inc()
            self._m_flows.set(n_live)
        if self._watchers and not repeat:
            self._notify_watchers(now)
        hook = self.on_settle
        if hook is not None:
            hook(now)

    def _reallocate(
        self,
        act_slots: np.ndarray,
        counts: np.ndarray,
        caps: np.ndarray,
        caps_changed: Optional[np.ndarray],
    ) -> np.ndarray:
        """Recompute the allocation — incrementally when possible.

        ``caps_changed`` lists the sinks whose capacity differs from the
        last allocation's, or is None when there was none.
        """
        dst = self._dst[act_slots]
        rates = None
        # Shares are never valid under QoS (see _qos_rates).
        if self._shares_valid and caps_changed is not None:
            dirty = self._dirty_sinks
            if caps_changed.size:
                if caps_changed.size + len(dirty) <= self._incr_max_dirty:
                    dirty = dirty | set(caps_changed.tolist())
                else:
                    dirty = None
            if dirty is not None and len(dirty) <= self._incr_max_dirty:
                rates = self._incremental_rates(
                    act_slots, dst, counts, caps, dirty
                )
        incremental = rates is not None
        if rates is None:
            if self._tenant_limits is not None:
                rates = self._qos_rates(act_slots, dst, counts, caps)
                share_dst = None
            else:
                rates, share_dst = _max_min_shares(
                    self._src[act_slots], dst, self._cap_src, caps,
                    self.flow_cap,
                    counts_src=self._src_counts, counts_dst=counts,
                )
            self._rate[act_slots] = rates
            self._inflow = np.bincount(
                dst, weights=rates, minlength=self.n_sinks
            )
            self._shares_valid = share_dst is not None
        self._dirty_sinks.clear()
        self._limits_changed = False
        self._last_caps = caps.copy()
        self.realloc_count += 1
        if self._m_realloc_batch is not None:
            (self._m_realloc_incr if incremental
             else self._m_realloc_batch).inc()
        return rates

    def _qos_rates(
        self,
        act_slots: np.ndarray,
        dst: np.ndarray,
        counts: np.ndarray,
        caps: np.ndarray,
    ) -> np.ndarray:
        """Batch allocation with per-tenant aggregate caps composed in.

        A tenant's limit is split equally across its active flows and
        composed into each flow's cap before the max-min pass, so
        flows within a tenant stay mutually fair while the tenant's
        aggregate never exceeds its budget.  A shadow uncapped pass
        prices the throttling: the per-tenant rate gap between the two
        allocations integrates (in :meth:`_advance_only`) into the
        ``tenant_throttled`` byte ledger.  The shadow pass depends only
        on the flow set and the sink capacities (the flow cap is the
        network's one value and tenant tags are fixed at
        :meth:`start_flow`), so it is memoized on the flow-set
        generation and the caps and reused while both stand; a limit
        change alone reruns only the capped pass.  The
        incremental patch path is bypassed entirely — tenant caps
        couple sinks through the tenant budget, so the per-sink
        decomposition it relies on does not hold.
        """
        limits = self._tenant_limits
        n_tenants = len(limits)
        src = self._src[act_slots]
        ten = self._tenant[act_slots]
        tagged = ten >= 0
        memo = self._shadow
        if (memo is not None and memo[0] == self._flowset_gen
                and np.array_equal(memo[1], caps)):
            uncapped = memo[2]
        else:
            uncapped, _ = _max_min_shares(
                src, dst, self._cap_src, caps, self.flow_cap,
                counts_src=self._src_counts, counts_dst=counts,
            )
            uncapped.flags.writeable = False
            self._shadow = (self._flowset_gen, caps.copy(), uncapped)
        if tagged.any():
            tcnt = np.bincount(ten[tagged], minlength=n_tenants)
            with np.errstate(divide="ignore", invalid="ignore"):
                per_flow = np.where(tcnt > 0, limits / tcnt, np.inf)
            ten_t = ten[tagged]
            eff = np.full(ten.size, self.flow_cap)
            eff[tagged] = np.minimum(self.flow_cap, per_flow[ten_t])
            rates, _ = _max_min_shares(
                src, dst, self._cap_src, caps, eff,
                counts_src=self._src_counts, counts_dst=counts,
            )
            self._tenant_throttle_rate = np.maximum(
                np.bincount(ten_t, weights=uncapped[tagged],
                            minlength=n_tenants)
                - np.bincount(ten_t, weights=rates[tagged],
                              minlength=n_tenants),
                0.0,
            )
        else:
            rates = uncapped
            self._tenant_throttle_rate = np.zeros(n_tenants)
        return rates

    def _incremental_rates(
        self,
        act_slots: np.ndarray,
        dst: np.ndarray,
        counts: np.ndarray,
        caps: np.ndarray,
        dirty: Set[int],
    ) -> Optional[np.ndarray]:
        """Patch the allocation for a small set of perturbed sinks.

        Valid only while no source is saturated: then the max-min
        allocation decomposes per sink, so only the dirty sinks'
        canonical shares need recomputing — O(flows at dirty sinks)
        plus one O(active) feasibility pass, instead of a batch pass
        over every flow.  Returns ``None`` when the patched allocation
        would push any source within the headroom margin of saturation
        (the perturbation cascades, the per-sink decomposition no
        longer holds) — the caller falls back to the batch allocator.
        The arithmetic matches the batch allocator's waterfill round
        operation for operation, so a successful patch is bit-identical
        to what the batch pass would produce.
        """
        if not dirty:
            return self._rate[act_slots]
        # Dirty sinks are waterfilled in a compact index space (their
        # position in `dirty_arr`): bincount visits the same flows in
        # the same order, so each share equals the full-width one.
        dirty_arr = np.fromiter(dirty, dtype=np.intp, count=len(dirty))
        lut = self._sink_lut
        lut[dirty_arr] = np.arange(len(dirty_arr))
        pos = lut[dst]
        lut[dirty_arr] = -1
        mask = pos >= 0
        sub_slots = act_slots[mask]
        sub = pos[mask]
        share = _waterfill_sink_shares(
            sub, self.flow_cap, caps[dirty_arr],
            counts[dirty_arr].astype(np.float64),
        )
        new_sub = np.minimum(self.flow_cap, share[sub])
        np.minimum(new_sub, _BIG_RATE, out=new_sub)
        rates = self._rate[act_slots]
        rates[mask] = new_sub
        src_load = np.bincount(
            self._src[act_slots], weights=rates, minlength=self.n_sources
        )
        if not (src_load <= self._src_limit).all():
            return None
        self._rate[sub_slots] = new_sub
        self._inflow[dirty_arr] = np.bincount(
            sub, weights=new_sub, minlength=len(dirty_arr)
        )
        self.incremental_count += 1
        return rates

    def _arm_timer(self, delay: float) -> None:
        if not np.isfinite(delay):
            self._timer.clear()
            return
        # Livelock tripwire: huge numbers of sub-nanosecond re-arms at
        # one simulated instant mean some state machine is stuck at a
        # threshold.  Fail loudly — a hang would hide the bug.
        if delay < 1e-9 and self.env.now == self._stall_now:
            self._stall_streak += 1
            if self._stall_streak > 100_000:
                raise RuntimeError(
                    f"flow network stalled at t={self.env.now}: "
                    f"{self._stall_streak} zero-delay settles"
                )
        else:
            self._stall_now = self.env.now
            self._stall_streak = 0
        # Clamp only: a crossing predicted a hair in the past (float
        # rounding) fires immediately, and _settle is idempotent — an
        # early-by-rounding fire recomputes the same allocation and
        # re-arms, while bytes only ever move by measured elapsed time,
        # never by the prediction.  No epsilon padding is applied.
        # A prediction later than the armed one is only recorded (the
        # alarm moves there without a settle when it comes due).
        self._timer.set(self.env.now + max(delay, 0.0))

    def _on_timer(self) -> None:
        # Looked up per call, so a profiler's per-instance ``_settle``
        # wrapper also times the settles the alarm fires.
        self._settle()
