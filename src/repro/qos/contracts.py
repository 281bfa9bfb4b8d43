"""Tenant bandwidth contracts and admission control.

A *contract* reserves a bandwidth floor for a tenant and caps its
burst ceiling.  The floor is the guaranteed part: admission control
refuses a contract set whose floors oversubscribe the pool's
guaranteed drain capacity, because a floor that cannot be honoured is
a lie, not a contract.  Everything above the floor is opportunistic —
granted while the fabric has headroom, throttled back (never errored)
when the congestion controller detects overload.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Tuple

import numpy as np

from repro.errors import AdmissionError, ConfigurationError

__all__ = ["TenantContract", "QosConfig", "check_admission"]


@dataclass(frozen=True)
class TenantContract:
    """One tenant's bandwidth contract (bytes/s).

    ``floor``
        Reserved aggregate bandwidth.  The control plane never pushes
        the tenant's limit below this, congestion or not.
    ``ceiling``
        Burst cap.  ``inf`` means "whatever max-min fairness grants";
        the token buckets still meter it so idle-tenant headroom can be
        borrowed deliberately rather than grabbed.
    """

    name: str
    floor: float
    ceiling: float = float("inf")

    def __post_init__(self):
        if not self.name:
            raise ConfigurationError("tenant name must be non-empty")
        if self.floor < 0:
            raise ConfigurationError(f"{self.name}: floor must be >= 0")
        if self.ceiling < self.floor:
            raise ConfigurationError(
                f"{self.name}: ceiling {self.ceiling:g} < floor "
                f"{self.floor:g}"
            )


@dataclass(frozen=True)
class QosConfig:
    """Contract set for one QoS plane, plus its fixed control-loop
    tuning.

    The tuning is deliberately conservative: a 50 ms control tick
    (fast against the multi-second cache-fill timescale that drives
    congestion), a half-second burst window, and textbook AIMD
    (halve the headroom above the floor on congestion, recover ~10% of
    it per second when quiet).
    """

    contracts: Tuple[TenantContract, ...]
    #: Seconds between control ticks.
    tick: ClassVar[float] = 0.05
    #: Token-bucket capacity, in seconds of ceiling rate.
    burst_window: ClassVar[float] = 0.5
    #: A target is hot at this congestion score (cache-fill fraction).
    congestion_threshold: ClassVar[float] = 0.9
    #: The pool is congested when this fraction of targets is hot.
    congestion_fraction: ClassVar[float] = 0.25
    #: Multiplicative decrease of an aggressor's headroom per tick.
    decrease: ClassVar[float] = 0.5
    #: Additive recovery, in floor-to-ceiling bands per second.
    increase_per_s: ClassVar[float] = 0.1
    #: Share of the pool's drain peak that floors may reserve.
    admission_margin: ClassVar[float] = 0.8

    def __post_init__(self):
        if not self.contracts:
            raise ConfigurationError("QosConfig needs at least one contract")
        names = [c.name for c in self.contracts]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate tenant names in {names}")

    @property
    def n_tenants(self) -> int:
        return len(self.contracts)

    def floors(self) -> np.ndarray:
        return np.array([c.floor for c in self.contracts])

    def ceilings(self) -> np.ndarray:
        return np.array([c.ceiling for c in self.contracts])


def check_admission(config: QosConfig, pool) -> float:
    """Admit the contract set against the pool's guaranteed capacity.

    The guaranteed capacity is what the drain stage can sustain on a
    quiet system — ``n_osts * drain_peak`` scaled by the admission
    margin (seek efficiency, external load and fault headroom eat into
    the theoretical peak, so floors may only claim a fraction of it).
    Raises :class:`~repro.errors.AdmissionError` on oversubscription;
    returns the guaranteed capacity otherwise.
    """
    guaranteed = (
        config.admission_margin
        * pool.n_sinks
        * pool.config.drain_peak
    )
    reserved = float(config.floors().sum())
    if reserved > guaranteed:
        raise AdmissionError(
            f"tenant floors reserve {reserved:.3g} B/s but the pool "
            f"guarantees only {guaranteed:.3g} B/s "
            f"({pool.n_sinks} targets x {pool.config.drain_peak:.3g} B/s "
            f"x {config.admission_margin:g} margin) — refuse at admission, "
            f"not mid-run"
        )
    return guaranteed
