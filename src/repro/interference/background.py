"""The paper's artificial-interference program, reimplemented.

Section IV: "External interference is introduced through a separate
program that continuously writes to a file striped across 8 storage
targets ... Three processes each write 1 GB continuously to a single
storage target, for a total of 24 processes."  A stripe count of 8 was
chosen "to reflect two applications writing using the default stripe
count of 4".

The job issues *real* flows on the fabric from reserved service nodes,
so it contends with the instrumented application exactly the way a
second batch job would: through OST caches, drain bandwidth, and
(if co-located) NIC share.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

from repro.units import GB

if TYPE_CHECKING:  # pragma: no cover
    from repro.machines.base import Machine

__all__ = ["BackgroundWriterJob"]


class BackgroundWriterJob:
    """Continuously-writing interference job.

    Parameters
    ----------
    machine:
        Host machine; it must have service nodes reserved, which the
        writers run on.
    n_osts:
        Storage targets hammered (paper: 8).
    writers_per_ost:
        Concurrent writers per target (paper: 3).
    write_size:
        Bytes per write iteration (paper: 1 GB).

    The targets are the *first* ``n_osts`` of the pool, which the
    instrumented job's default allocation also uses — so the two jobs
    genuinely collide, as they did on the shared Jaguar scratch
    system.  Interference flows carry no QoS tenant: they stay outside
    every contract.
    """

    def __init__(
        self,
        machine: "Machine",
        n_osts: int = 8,
        writers_per_ost: int = 3,
        write_size: float = 1.0 * GB,
    ):
        if n_osts < 1 or writers_per_ost < 1:
            raise ValueError("n_osts and writers_per_ost must be >= 1")
        if write_size <= 0:
            raise ValueError("write_size must be positive")
        self.machine = machine
        pool_n = machine.pool.n_sinks
        if n_osts > pool_n:
            raise ValueError(f"n_osts {n_osts} exceeds pool size {pool_n}")
        self.osts: List[int] = list(range(n_osts))
        self.writers_per_ost = writers_per_ost
        self.write_size = write_size
        if machine.n_service_nodes < 1:
            raise ValueError(
                "machine has no service nodes; build with "
                "extra_service_nodes>=1"
            )
        self.source_nodes = [
            machine.service_node(i % machine.n_service_nodes)
            for i in range(n_osts * writers_per_ost)
        ]
        self._stop = False
        self._procs = []
        self.bytes_written = 0.0
        self.iterations = 0

    @property
    def n_writers(self) -> int:
        return len(self.source_nodes)

    def _writer(self, ost: int, node: int):
        env = self.machine.env
        fabric = self.machine.fs.fabric
        while not self._stop:
            yield fabric.start_flow(node, ost, self.write_size)
            self.bytes_written += self.write_size
            self.iterations += 1

    def start(self) -> None:
        """Launch all writer loops."""
        if self._procs:
            raise RuntimeError("job already started")
        w = 0
        for ost in self.osts:
            for _ in range(self.writers_per_ost):
                node = self.source_nodes[w]
                w += 1
                self._procs.append(
                    self.machine.env.process(
                        self._writer(ost, node), name=f"bg.w{w}"
                    )
                )

    def stop(self) -> None:
        """Ask all writers to stop after their current write."""
        self._stop = True
