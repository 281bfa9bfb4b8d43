"""Writer-to-group assignment for the adaptive transport.

"Since process IDs are typically assigned sequentially to cores in a
node, grouping them as illustrated reduces the network contention on
the node due to simultaneous writing from the same node, but different
cores" — so the default maps *contiguous rank blocks* to groups, and
each group's first rank carries the sub-coordinator role (and rank 0
additionally the coordinator role).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

__all__ = ["GroupMap"]


@dataclass(frozen=True)
class GroupMap:
    """Partition of ``n_ranks`` writers into ``n_groups`` groups.

    Groups are contiguous rank blocks.  By default their sizes are
    near-equal (the first ``n_ranks % n_groups`` groups get one extra
    rank); ``sizes`` gives them explicitly instead, one per group,
    each at least 1 and summing to ``n_ranks``.  More groups than
    ranks is legal in principle but useless — it is rejected so a
    misconfigured experiment fails loudly.
    """

    n_ranks: int
    n_groups: int
    sizes: Optional[Tuple[int, ...]] = None

    def __post_init__(self):
        if self.n_ranks < 1:
            raise ValueError("n_ranks must be >= 1")
        if self.n_groups < 1:
            raise ValueError("n_groups must be >= 1")
        if self.n_groups > self.n_ranks:
            raise ValueError(
                f"n_groups {self.n_groups} > n_ranks {self.n_ranks}: "
                "every group needs at least one writer"
            )
        if self.sizes is None:
            base, extra = divmod(self.n_ranks, self.n_groups)
            sizes = [base + (g < extra) for g in range(self.n_groups)]
        else:
            sizes = [int(q) for q in self.sizes]
            if len(sizes) != self.n_groups:
                raise ValueError(
                    f"{len(sizes)} group sizes for {self.n_groups} groups"
                )
            if sum(sizes) != self.n_ranks:
                raise ValueError(
                    f"group sizes sum to {sum(sizes)}, expected "
                    f"{self.n_ranks}"
                )
            if min(sizes) < 1:
                raise ValueError("every group needs at least one writer")
        # Frozen dataclass: the sizes and derived bounds are set once,
        # here.
        object.__setattr__(self, "sizes", tuple(sizes))
        object.__setattr__(
            self, "_bounds", np.concatenate([[0], np.cumsum(sizes)])
        )

    def group_of(self, rank: int) -> int:
        if not 0 <= rank < self.n_ranks:
            raise ValueError(f"rank {rank} out of range")
        return int(np.searchsorted(self._bounds, rank, side="right") - 1)

    def ranks_in(self, group: int) -> List[int]:
        if not 0 <= group < self.n_groups:
            raise ValueError(f"group {group} out of range")
        bounds = self._bounds
        return list(range(int(bounds[group]), int(bounds[group + 1])))

    def sub_coordinator_of(self, group: int) -> int:
        """The SC rank: the group's first writer."""
        return self.ranks_in(group)[0]

    @property
    def coordinator(self) -> int:
        """The coordinator rank (rank 0, also SC of group 0)."""
        return 0

    def group_size(self, group: int) -> int:
        return len(self.ranks_in(group))
