"""History-aware adaptive IO — the paper's future-work extension.

"Finally, there are likely more complex and/or state-rich methods for
system adaptation, including those that take into account past usage
data."  (Section VI.)

This transport keeps a :class:`PerformanceHistory` across output
steps: an exponentially-weighted estimate of each storage target's
effective bandwidth, updated from every completed write.  The next
output step **seeds group sizes with it** — groups are sized
proportionally to their target's estimated speed, so a persistently
slow target starts with fewer writers instead of waiting for online
steering to bail it out write by write.

Against stationary slow targets this converges to a near-balanced
schedule by the second step; against purely transient noise it
degrades gracefully to vanilla adaptive behaviour (the history is
uninformative, the quotas stay near-uniform, and online steering
still reacts).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional

import numpy as np

from repro.core.groups import GroupMap
from repro.core.transports.adaptive import AdaptiveTransport
from repro.core.transports.base import OutputResult

if TYPE_CHECKING:  # pragma: no cover
    from repro.apps.base import AppKernel
    from repro.machines.base import Machine

__all__ = ["PerformanceHistory", "HistoryAwareAdaptiveTransport"]


class PerformanceHistory:
    """EWMA per-target bandwidth estimates across output steps.

    ``n_targets`` storage targets are tracked, each starting at
    :attr:`prior`.
    """

    #: EWMA weight of a slower observation.
    alpha = 0.4
    #: EWMA weight of a faster one.  Asymmetric learning: quick to
    #: believe a target got slower, slow to believe it recovered.  A
    #: quota-starved slow target carries little data and therefore
    #: *measures* healthy, and a symmetric filter would oscillate
    #: between avoiding and flooding it every other step.
    alpha_up = alpha / 4
    #: Initial estimate (bytes/s) before any observation; any positive
    #: value works — only *relative* speeds matter downstream.
    prior = 100e6

    def __init__(self, n_targets: int):
        if n_targets < 1:
            raise ValueError("n_targets must be >= 1")
        self.estimate = np.full(n_targets, self.prior)
        self.observations = np.zeros(n_targets, dtype=np.int64)

    def observe(self, target: int, bandwidth: float) -> None:
        """Fold one completed write's effective bandwidth in."""
        if bandwidth <= 0:
            return
        if self.observations[target] == 0:
            self.estimate[target] = bandwidth
        else:
            delta = bandwidth - self.estimate[target]
            a = self.alpha if delta < 0 else self.alpha_up
            self.estimate[target] += a * delta
        self.observations[target] += 1

    def observe_result(self, result: OutputResult) -> None:
        """Fold a whole output step's per-writer timings in.

        Per target we fold in the *slowest* writer's bandwidth of the
        step, not the mean: early writes absorb into cache at full
        ingest speed no matter how sick the target's disks are, so the
        straggler (which ran drain-paced) is the honest signal — the
        same slowest-writer quantity the paper's imbalance factor is
        built on.
        """
        worst: Dict[int, float] = {}
        for w in result.per_writer:
            if w.target_group >= 0 and w.bandwidth > 0:
                prev = worst.get(w.target_group)
                if prev is None or w.bandwidth < prev:
                    worst[w.target_group] = w.bandwidth
        for target, bw in worst.items():
            self.observe(target, bw)

    def relative_speeds(self, n: Optional[int] = None) -> np.ndarray:
        """Per-target speed weights normalized to mean 1."""
        est = self.estimate if n is None else self.estimate[:n]
        return est / est.mean()


class HistoryAwareAdaptiveTransport(AdaptiveTransport):
    """Adaptive IO seeded and steered by past usage data.

    Drop-in extension of :class:`AdaptiveTransport`; reuse the same
    instance across output steps so the history accumulates::

        transport = HistoryAwareAdaptiveTransport(n_osts_used=512)
        for step in range(n_steps):
            result = transport.run(machine, app, f"out.{step}")
    """

    name = "adaptive-history"
    #: Seeded quotas stay within this factor of uniform.
    max_skew = 8.0

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.history: Optional[PerformanceHistory] = None
        self.steps_run = 0

    # -- seeding -----------------------------------------------------------
    def group_quotas(self, n_ranks: int, n_groups: int) -> List[int]:
        """Writers initially assigned to each group, history-weighted.

        Quotas are proportional to estimated target speed, clamped to
        ``max_skew`` around uniform so one bad estimate cannot starve
        a group, and adjusted to sum exactly to ``n_ranks`` with at
        least one writer per group (each group's sub-coordinator is a
        writer).
        """
        if self.history is None or self.history.observations.sum() == 0:
            return list(GroupMap(n_ranks, n_groups).sizes)
        speeds = self.history.relative_speeds(n_groups)
        lo, hi = 1.0 / self.max_skew, self.max_skew
        speeds = np.clip(speeds, lo, hi)
        raw = speeds / speeds.sum() * n_ranks
        quotas = np.maximum(1, np.floor(raw).astype(int))
        # Distribute the remainder to the largest fractional parts.
        deficit = n_ranks - int(quotas.sum())
        if deficit > 0:
            order = np.argsort(-(raw - np.floor(raw)))
            for i in range(deficit):
                quotas[order[i % n_groups]] += 1
        while quotas.sum() > n_ranks:
            donor = int(np.argmax(quotas))
            if quotas[donor] <= 1:
                break
            quotas[donor] -= 1
        return quotas.tolist()

    def run(
        self,
        machine: "Machine",
        app: "AppKernel",
        output_name: str = "output",
    ) -> OutputResult:
        n_groups = self._n_groups(machine)
        if self.history is None:
            self.history = PerformanceHistory(n_groups)
        elif len(self.history.estimate) != n_groups:
            raise ValueError(
                "history tracks a different target count; use one "
                "transport instance per configuration"
            )
        result = super().run(machine, app, output_name=output_name)
        self.history.observe_result(result)
        self.steps_run += 1
        result.extra["history_steps"] = float(self.steps_run)
        return result

    def _make_group_map(self, n_ranks: int, n_groups: int):
        """History-weighted partition (uniform until data exists)."""
        return GroupMap(n_ranks, n_groups,
                        sizes=tuple(self.group_quotas(n_ranks, n_groups)))

    def _steer_target_ok(self, target: int) -> bool:
        """Veto steering onto targets the history says are slow.

        A weighted-quota slow target frees up early; refilling it with
        steered writes would rebuild exactly the straggler tail the
        quota avoided.  Threshold: below 35% of the median estimated
        target speed.
        """
        if self.history is None or self.history.observations.sum() == 0:
            return True
        est = self.history.estimate
        return bool(est[target] >= 0.35 * float(np.median(est)))
