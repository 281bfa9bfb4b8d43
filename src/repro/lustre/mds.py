"""Metadata server: queued open/create operations.

The paper excludes open/close from its timing specifically because the
metadata server is its own variability source ("an additional issue is
lack of scalability in metadata operations"), and its companion
*stagger* method exists to spread file opens out in time.  We model
the MDS as a small fixed-concurrency server with stochastic service
times; thousands of simultaneous creates therefore queue, and
staggering them measurably helps — which is all the fidelity the
stagger ablation needs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, Optional

import numpy as np

from repro.sim.queues import Resource

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Environment

__all__ = ["MetadataServer"]


class MetadataServer:
    """Fixed-concurrency metadata service with lognormal op times.

    Parameters
    ----------
    env:
        Simulation environment.
    concurrency:
        Ops serviced in parallel (MDS service threads).
    mean_service_time:
        Mean seconds per metadata op.
    rng:
        Random stream for the jitter; None gives every op the mean
        service time.
    """

    #: Lognormal shape of the service-time jitter.
    sigma = 0.3

    def __init__(
        self,
        env: "Environment",
        concurrency: int = 8,
        mean_service_time: float = 1.0e-3,
        rng: Optional[np.random.Generator] = None,
    ):
        if concurrency < 1:
            raise ValueError("concurrency must be >= 1")
        if not mean_service_time > 0:
            raise ValueError("mean_service_time must be positive")
        self.env = env
        self._server = Resource(env, capacity=concurrency)
        self.mean_service_time = mean_service_time
        self._rng = rng
        self.ops_completed = 0
        self.total_wait_time = 0.0
        self.total_service_time = 0.0
        self.max_queue_length = 0

    def _draw_service_time(self) -> float:
        if self._rng is None:
            return self.mean_service_time
        # Lognormal with the requested mean: mu = ln(m) - sigma^2/2.
        mu = np.log(self.mean_service_time) - 0.5 * self.sigma**2
        return float(self._rng.lognormal(mu, self.sigma))

    def operation(self, kind: str = "open") -> Generator:
        """Simulate one metadata op; returns (wait_time, service_time)."""
        arrived = self.env.now
        self.max_queue_length = max(
            self.max_queue_length, self._server.queue_length + 1
        )
        req = self._server.request()
        try:
            yield req
            wait = self.env.now - arrived
            service = self._draw_service_time()
            yield self.env.timeout(service)
        finally:
            # A rank killed while queued must not keep (or be handed)
            # a slot.
            self._server.withdraw(req)
        self.ops_completed += 1
        self.total_wait_time += wait
        self.total_service_time += service
        return wait, service
