"""Compute-node topology and rank placement.

Models the aspect of the machine that matters to the paper's IO story:
MPI ranks are packed sequentially onto multi-core nodes ("process IDs
are typically assigned sequentially to cores in a node"), and all cores
of a node share one network injection port.  Grouping consecutive ranks
per storage target therefore reduces same-node injection contention —
one of the stated design choices of adaptive IO.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["Topology"]


@dataclass(frozen=True)
class Topology:
    """Placement of MPI ranks onto compute nodes.

    Parameters
    ----------
    n_ranks:
        Number of MPI ranks in the job.
    cores_per_node:
        Ranks packed per node (12 on Jaguar XT5's dual hex-core nodes).
    nic_bandwidth:
        Injection bandwidth of one node's NIC, bytes/s, shared by all
        ranks on the node.

    Ranks are packed: rank *i* runs on node ``i // cores_per_node``.
    """

    n_ranks: int
    cores_per_node: int = 12
    nic_bandwidth: float = 2.0e9
    _node_of_rank: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n_ranks < 1:
            raise ValueError(f"n_ranks must be >= 1, got {self.n_ranks}")
        if self.cores_per_node < 1:
            raise ValueError(
                f"cores_per_node must be >= 1, got {self.cores_per_node}"
            )
        if self.nic_bandwidth <= 0:
            raise ValueError("nic_bandwidth must be positive")
        nodes = np.arange(self.n_ranks, dtype=np.int64) // self.cores_per_node
        object.__setattr__(self, "_node_of_rank", nodes)

    @property
    def n_nodes(self) -> int:
        """Number of compute nodes occupied by the job."""
        return -(-self.n_ranks // self.cores_per_node)

    def node_of(self, rank: int) -> int:
        """Node index hosting *rank*."""
        return int(self._node_of_rank[rank])

    @property
    def node_of_rank(self) -> np.ndarray:
        """Vectorized rank → node mapping (read-only view)."""
        view = self._node_of_rank.view()
        view.flags.writeable = False
        return view

    def ranks_on_node(self, node: int) -> np.ndarray:
        """All ranks hosted on *node*."""
        return np.nonzero(self._node_of_rank == node)[0]

    def nic_capacities(self) -> np.ndarray:
        """Per-node NIC capacity array for the flow network."""
        return np.full(self.n_nodes, self.nic_bandwidth, dtype=np.float64)
