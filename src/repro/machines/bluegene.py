"""A BlueGene/P with GPFS — the paper's named future-work target.

"Our future work will examine the benefits of adaptive IO on systems
beyond Lustre at ORNL, including Franklin at NERSC, PanFS on Sandia's
XTP, and perhaps, GPFS on a BlueGene/P machine."

GPFS differs from Lustre in the ways that matter to this model:

* data is wide-striped over *all* NSD servers by default — there is no
  per-file target cap, so the MPI-IO baseline is not structurally
  starved of targets;
* NSD servers have large coalescing buffers and handle concurrent
  streams more gracefully than a Lustre 1.6 OST (shallower efficiency
  curve), but degrade too under heavy concurrency;
* compute nodes reach storage through dedicated IO nodes at a fixed
  compute:IO ratio (64:1 on a typical BG/P), which caps per-node
  injection far below a Cray's SeaStar.

The extension bench (bench_extension_machines) uses this spec to ask
the paper's open question: does adaptive IO still pay off when the
stripe cap disappears?  (Answer in this model: yes under interference
— steering is about *slow* targets, not only *too few* targets — but
the structural 3-5x gap closes.)
"""

from __future__ import annotations

from repro.lustre.ost import EfficiencyCurve, OstPoolConfig
from repro.machines.base import MachineSpec
from repro.units import GB, MB

__all__ = ["bluegene_p"]


def gpfs_drain_curve() -> EfficiencyCurve:
    """NSD server efficiency vs concurrent streams (GPFS coalescing)."""
    return EfficiencyCurve(
        [
            (1, 0.78),
            (2, 0.96),
            (4, 1.00),
            (16, 0.96),
            (64, 0.84),
            (256, 0.60),
            (1024, 0.40),
        ]
    )


def gpfs_ingest_curve() -> EfficiencyCurve:
    return EfficiencyCurve(
        [
            (1, 0.95),
            (8, 1.00),
            (128, 0.95),
            (1024, 0.75),
        ]
    )


def bluegene_p(n_nsd_servers: int = 128) -> MachineSpec:
    """A mid-sized BlueGene/P rack group with GPFS.

    4 cores/node, modest per-node injection (traffic funnels through
    shared IO nodes), 128 NSD servers with ~350 MB/s each.
    """
    return MachineSpec(
        name="bluegene_p",
        max_cores=163_840,  # 40 racks of 1024 quad-core nodes
        cores_per_node=4,
        nic_bandwidth=0.425 * GB,  # IO-node funnel share per node
        ost_config=OstPoolConfig(
            n_osts=n_nsd_servers,
            drain_peak=350.0 * MB,
            ingest_peak=700.0 * MB,
            cache_capacity=1.0 * GB,  # NSD pagepool is generous
            drain_curve=gpfs_drain_curve(),
            ingest_curve=gpfs_ingest_curve(),
        ),
        # GPFS wide-striping: no Lustre-style per-file cap.
        max_stripe_count=n_nsd_servers,
        default_stripe_size=4.0 * MB,  # GPFS block size
        per_stream_cap=350.0 * MB,
        mds_concurrency=16,  # distributed token/metadata management
        mds_mean_service_time=0.8e-3,
    )
