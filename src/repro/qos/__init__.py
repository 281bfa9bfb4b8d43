"""Multi-tenant QoS: contracts, token buckets, congestion control.

The paper treats competing traffic as unmanaged weather; this package
makes it a managed resource.  Per-tenant bandwidth contracts (reserved
floor + burst ceiling) are enforced at the fabric by composing
per-tenant rate caps into the max-min fair allocation, metered by
decentralized token buckets with idle→busy borrowing (AdapTBF), and
governed by an AIMD feedback controller that throttles aggressors
toward their floors when the OST pool reports shared-storage
congestion.  Degradation is graceful by construction: an over-contract
tenant is backpressured, never errored, and every throttled byte is
ledgered.

A contract set reaches a run one way: the explicit ``qos=`` argument
of :func:`run_tenants`.  Without it, tenants contend under raw max-min
fairness, the ablation baseline.
"""

from __future__ import annotations

from repro.qos.contracts import QosConfig, TenantContract, check_admission
from repro.qos.controller import CongestionController
from repro.qos.multitenant import (
    MultiTenantResult,
    TenantJob,
    TenantOutcome,
    TenantView,
    jain_index,
    run_tenants,
)
from repro.qos.plane import QosControlPlane
from repro.qos.tokens import TokenBucketArray

__all__ = [
    "TenantContract",
    "QosConfig",
    "check_admission",
    "TokenBucketArray",
    "CongestionController",
    "QosControlPlane",
    "TenantJob",
    "TenantView",
    "TenantOutcome",
    "MultiTenantResult",
    "run_tenants",
    "jain_index",
]
