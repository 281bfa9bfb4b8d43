"""The QoS control plane: buckets + controller wired to one fabric.

Installation order is admission first (a floor set the pool cannot
guarantee is refused up front with
:class:`~repro.errors.AdmissionError`), then an initial limit push
(ceilings — QoS starts permissive), then a periodic control tick on
the simulation calendar.  Each tick:

1. read the fabric's per-tenant served/throttled byte ledgers and
   difference them into observed rates;
2. meter the served bytes through the token buckets (spend), then
   refill with idle→busy borrowing sized by observed demand;
3. run the AIMD controller over the pool's congestion scores;
4. push ``clip(min(bucket allowance, controller allowance),
   floor, ceiling)`` to the fabric as the new tenant limits.

Everything the plane does is calendar-driven and deterministic; two
runs with the same seed and contract set tick identically, which is
what keeps the parallel==serial contract intact for QoS sweeps.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.qos.contracts import QosConfig, check_admission
from repro.qos.controller import CongestionController
from repro.qos.tokens import TokenBucketArray

__all__ = ["QosControlPlane"]


class QosControlPlane:
    """Bind a contract set to a machine's fabric and OST pool."""

    def __init__(self, machine, config: QosConfig):
        self.machine = machine
        self.config = config
        self.env = machine.env
        self.fabric = machine.fs.fabric
        self.pool = machine.pool
        self.guaranteed = check_admission(config, self.pool)
        floors = config.floors()
        # Finite burst ceilings: an `inf` contract ceiling means "all
        # the headroom there is", which for metering purposes is the
        # pool's aggregate guaranteed capacity on top of the floor.
        ceilings = np.minimum(
            config.ceilings(), floors + self.guaranteed
        )
        self.ceilings = ceilings
        # Unreserved mint keeps metering work-conserving: capacity no
        # floor has claimed flows to whoever has deficit, so an
        # all-busy tenant mix is not starved down to its floors.
        self.buckets = TokenBucketArray(
            floors,
            np.maximum(ceilings * config.burst_window, 1.0),
            unreserved=max(0.0, self.guaranteed - float(floors.sum())),
        )
        self.controller = CongestionController(config, ceilings)
        self._tick_event = None
        self._last_tick = 0.0
        self._last_served = np.zeros(config.n_tenants)
        self._last_throttled = np.zeros(config.n_tenants)
        self.ticks = 0
        self.installed = False
        self._metrics_bound = False

    # -- lifecycle -------------------------------------------------------
    def install(self) -> None:
        """Push initial limits and start the periodic control tick."""
        if self.installed:
            return
        self.installed = True
        self._last_tick = self.env.now
        self.fabric.set_tenant_limits(self.ceilings)
        self._resolve_metrics()
        self._tick_event = self.env.schedule_callback(
            self.config.tick, self._on_tick
        )

    def stop(self) -> None:
        """Cancel the pending tick; installed limits stay in force."""
        if self._tick_event is not None:
            self._tick_event.cancel()
            self._tick_event = None

    def _resolve_metrics(self) -> None:
        reg = self.env.metrics
        if reg is None or self._metrics_bound:
            return
        self._metrics_bound = True
        names = [c.name for c in self.config.contracts]
        self._m_served = [
            reg.counter("qos.served_bytes", tenant=n) for n in names
        ]
        self._m_throttled = [
            reg.counter("qos.throttled_bytes", tenant=n) for n in names
        ]
        self._m_limit = [
            reg.gauge("qos.limit_bytes_per_s", tenant=n) for n in names
        ]
        self._m_aggr = [
            reg.counter("qos.aggressor_ticks", tenant=n) for n in names
        ]
        self._m_congested = reg.counter("qos.congested_ticks")

    # -- the control loop ------------------------------------------------
    def _on_tick(self) -> None:
        now = self.env.now
        dt = now - self._last_tick
        self._last_tick = now
        self.ticks += 1
        served, throttled = self.fabric.tenant_accounting()
        d_served = served - self._last_served
        d_throttled = throttled - self._last_throttled
        self._last_served = served
        self._last_throttled = throttled
        if dt > 0:
            served_rate = d_served / dt
            throttled_rate = d_throttled / dt
        else:
            served_rate = np.zeros_like(d_served)
            throttled_rate = np.zeros_like(d_throttled)
        demand_rate = served_rate + throttled_rate
        self.buckets.spend(d_served)
        self.buckets.refill(dt, demand_rate)
        scores = self.pool.congestion_scores()
        was_congested = self.controller.congested(scores)
        allow = self.controller.update(dt, scores, served_rate, demand_rate)
        bucket_allow = self.buckets.allowance(self.config.tick)
        limits = np.clip(
            np.minimum(allow, bucket_allow),
            self.buckets.floors,
            self.ceilings,
        )
        self.fabric.set_tenant_limits(limits)
        if self._metrics_bound:
            for t in range(self.config.n_tenants):
                self._m_served[t].inc(float(d_served[t]))
                self._m_throttled[t].inc(float(d_throttled[t]))
                self._m_limit[t].set(float(limits[t]))
            if was_congested:
                self._m_congested.inc()
        self._tick_event = self.env.schedule_callback(
            self.config.tick, self._on_tick
        )

    # -- accounting ------------------------------------------------------
    def summary(self) -> Dict[str, object]:
        """Post-run accounting: the graceful-degradation ledger."""
        served, throttled = self.fabric.tenant_accounting()
        if self._metrics_bound:
            # Flush the tail bytes accumulated since the last tick so
            # the telemetry counters agree with the fabric ledger.
            for t in range(self.config.n_tenants):
                self._m_served[t].inc(float(served[t] - self._last_served[t]))
                self._m_throttled[t].inc(
                    float(throttled[t] - self._last_throttled[t])
                )
                self._m_aggr[t].inc(
                    int(self.controller.aggressor_ticks[t])
                )
            self._last_served = served.copy()
            self._last_throttled = throttled.copy()
        per_tenant = []
        for t, c in enumerate(self.config.contracts):
            per_tenant.append({
                "tenant": c.name,
                "floor": c.floor,
                "ceiling": float(self.ceilings[t]),
                "served_bytes": float(served[t]),
                "throttled_bytes": float(throttled[t]),
                "aggressor_ticks": int(self.controller.aggressor_ticks[t]),
                "token_overdraft": float(self.buckets.overdraft[t]),
            })
        return {
            "ticks": self.ticks,
            "congested_ticks": self.controller.congested_ticks,
            "throttle_events": self.controller.throttle_events,
            "tokens_minted": self.buckets.minted,
            "tokens_borrowed": self.buckets.borrowed,
            "tokens_discarded": self.buckets.discarded,
            "token_conservation_error": self.buckets.conservation_error(),
            "guaranteed_capacity": self.guaranteed,
            "tenants": per_tenant,
        }
