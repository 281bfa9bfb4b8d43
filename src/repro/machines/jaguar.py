"""Jaguar XT5 (ORNL) — the paper's primary platform.

Paper facts encoded here: 18 680 nodes of dual hex-core Opterons
(224 160 cores, 12 per node), a 672-target Lustre 1.6 scratch system
of ~10 PB, ~180 MB/s theoretical per-OST peak, the 160-OST single-file
stripe cap, and ~2 GB storage-target caches.
"""

from __future__ import annotations

from repro.lustre.ost import OstPoolConfig
from repro.machines.base import MachineSpec
from repro.units import GB, MB

__all__ = ["jaguar"]


def jaguar(n_osts: int = 672) -> MachineSpec:
    """The Jaguar/Spider machine spec (tests and scaled-down presets
    pick a smaller pool)."""
    return MachineSpec(
        name="jaguar",
        max_cores=224_160,
        cores_per_node=12,
        nic_bandwidth=1.6 * GB,
        ost_config=OstPoolConfig(
            n_osts=n_osts,
            drain_peak=180.0 * MB,
            ingest_peak=450.0 * MB,
            cache_capacity=192.0 * MB,
        ),
        max_stripe_count=160,
        default_stripe_size=1.0 * MB,
        per_stream_cap=300.0 * MB,
        mds_concurrency=8,
        mds_mean_service_time=1.2e-3,
    )
