"""XTP (Sandia) — Cray XT5 with a Panasas file system.

Paper facts: 160 nodes of dual hex-core Opterons (1 920 cores), PanFS
with 40 StorageBlades totalling 61 TB.  Being a small non-production
machine, XTP shows almost no internal interference (<5% degradation
512 -> 1024 writers) and, without a second job, little external
variability — both properties come from the flat PanFS efficiency
curves in :mod:`repro.lustre.panfs`.
"""

from __future__ import annotations

from repro.lustre.ost import OstPoolConfig
from repro.lustre.panfs import panfs_efficiency_curve, panfs_ingest_curve
from repro.machines.base import MachineSpec
from repro.units import GB, MB

__all__ = ["xtp"]


def xtp() -> MachineSpec:
    """The XTP machine spec (40 StorageBlades play the OST role)."""
    return MachineSpec(
        name="xtp",
        max_cores=1_920,
        cores_per_node=12,
        nic_bandwidth=1.6 * GB,
        ost_config=OstPoolConfig(
            n_osts=40,
            drain_peak=220.0 * MB,
            ingest_peak=500.0 * MB,
            cache_capacity=4.0 * GB,  # blade NVRAM staging is generous
            drain_curve=panfs_efficiency_curve(),
            ingest_curve=panfs_ingest_curve(),
        ),
        # PanFS object RAID does not share Lustre's 160-target cap; any
        # file may span all blades.
        max_stripe_count=40,
        default_stripe_size=1.0 * MB,
        per_stream_cap=320.0 * MB,
        mds_concurrency=8,
        mds_mean_service_time=1.0e-3,
    )
