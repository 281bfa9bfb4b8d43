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

``with_qos`` / ``resolve_qos_config`` mirror the fault and telemetry
context managers: a process-wide active config that
``MachineSpec.build`` picks up, with the ``REPRO_QOS`` environment
variable (path to a contract JSON) as the ambient fallback.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator, Optional

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
    "with_qos",
    "get_active_qos",
    "resolve_qos_config",
]

_active_qos: Optional[QosConfig] = None


@contextmanager
def with_qos(config: QosConfig) -> Iterator[QosConfig]:
    """Install a process-wide QoS config for the dynamic extent.

    Machines built inside the block (without an explicit ``qos``
    argument) pick it up, the same way ``with_faults`` and
    ``repro.session.instrumented`` work for fault plans and
    instrumentation.
    """
    global _active_qos
    prev = _active_qos
    _active_qos = config
    try:
        yield config
    finally:
        _active_qos = prev


def get_active_qos() -> Optional[QosConfig]:
    return _active_qos


def resolve_qos_config(
    explicit: Optional[QosConfig] = None,
) -> Optional[QosConfig]:
    """Explicit argument > ``with_qos`` context > ``REPRO_QOS`` file."""
    if explicit is not None:
        return explicit
    if _active_qos is not None:
        return _active_qos
    path = os.environ.get("REPRO_QOS", "").strip()
    if path:
        return QosConfig.load_json(path)
    return None
