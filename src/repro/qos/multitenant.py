"""Run N tenants' transports concurrently on one shared machine.

The "many jobs, one fabric" harness.  Each tenant gets a contiguous
rank block of the host machine through a :class:`TenantView` — a thin
facade that re-bases ``node_of``/``n_ranks`` and stamps the tenant id
— and its transport is *launched* (not run to completion) so all
tenants' simulated processes interleave on the one calendar, contend
on the one fabric, and fall under the one QoS control plane.

Graceful degradation is enforced at collection: a throttled tenant
finishes late, never errors, and both clean results and
:class:`~repro.errors.TransportError` partials carry the tenant's
served-vs-throttled byte ledger in ``extra``.

Rank-crash faults are rejected up front: the fault injector keys
crash targets by global rank, which is ambiguous across tenants' local
rank spaces.  OST fail-stop/hang/brownout faults — the resilience
cross-check — work unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.errors import ConfigurationError, FileSystemError, TransportError
from repro.qos.contracts import QosConfig
from repro.qos.plane import QosControlPlane

__all__ = ["TenantJob", "TenantView", "TenantOutcome",
           "MultiTenantResult", "run_tenants", "jain_index"]


def jain_index(values: np.ndarray) -> float:
    """Jain's fairness index: ``(sum x)^2 / (n * sum x^2)``, in (0, 1].

    1.0 means perfectly even; ``1/n`` means one tenant took everything.
    """
    x = np.asarray(values, dtype=np.float64)
    if x.size == 0:
        return 1.0
    denom = float(x.size * (x ** 2).sum())
    if denom <= 0:
        return 1.0
    return float(x.sum()) ** 2 / denom


@dataclass(frozen=True)
class TenantJob:
    """One tenant's workload: a transport, an app kernel, a rank count."""

    name: str
    transport: object  # Transport
    app: object  # AppKernel
    n_ranks: int

    def __post_init__(self):
        if self.n_ranks < 1:
            raise ConfigurationError(f"{self.name}: n_ranks must be >= 1")


class TenantView:
    """Machine facade scoping one tenant to a contiguous rank block.

    Ranks ``[0, n_ranks)`` of the view map to host ranks
    ``[rank_base, rank_base + n_ranks)``; every other attribute
    (env, fs, pool, spec, faults, metrics, ...) delegates to the host
    machine, so all tenants share one fabric and one OST pool.  The
    ``tenant`` attribute is what transports stamp onto their writes.
    """

    def __init__(self, machine, tenant: int, rank_base: int, n_ranks: int):
        if rank_base < 0 or rank_base + n_ranks > machine.n_ranks:
            raise ConfigurationError(
                f"tenant {tenant}: ranks [{rank_base}, "
                f"{rank_base + n_ranks}) exceed host machine's "
                f"{machine.n_ranks} ranks"
            )
        self._machine = machine
        self.tenant = tenant
        self.rank_base = rank_base
        self._n_ranks = n_ranks

    @property
    def n_ranks(self) -> int:
        return self._n_ranks

    @property
    def n_osts(self) -> int:
        return self._machine.n_osts

    def node_of(self, rank: int) -> int:
        if not 0 <= rank < self._n_ranks:
            raise IndexError(
                f"tenant {self.tenant}: rank {rank} out of range "
                f"[0, {self._n_ranks})"
            )
        return self._machine.node_of(self.rank_base + rank)

    def __getattr__(self, name):
        return getattr(self._machine, name)


@dataclass
class TenantOutcome:
    """What one tenant's run produced, clean or degraded."""

    name: str
    tenant: int
    result: Optional[object]  # OutputResult (partial when error is set)
    error: Optional[TransportError]
    completion_seconds: float
    served_bytes: float = 0.0
    throttled_bytes: float = 0.0

    @property
    def clean(self) -> bool:
        return self.error is None

    @property
    def per_writer_durations(self) -> np.ndarray:
        if self.result is None:
            return np.zeros(0)
        return self.result.per_writer_durations

    @property
    def served_throughput(self) -> float:
        """Served bytes over the tenant's completion window (B/s)."""
        t = self.completion_seconds
        return self.served_bytes / t if t > 0 else 0.0


@dataclass
class MultiTenantResult:
    """All tenants' outcomes plus the control plane's ledger."""

    outcomes: List[TenantOutcome]
    qos: Optional[Dict] = None
    makespan: float = 0.0
    extra: Dict[str, float] = field(default_factory=dict)

    @property
    def clean(self) -> bool:
        return all(o.clean for o in self.outcomes)

    def fairness(self, floors: Optional[np.ndarray] = None) -> float:
        """Jain index over per-tenant throughput, floor-normalized.

        With ``floors`` given, each tenant's served throughput is
        divided by its contracted floor first — fairness then means
        "everyone got the same multiple of what they reserved", the
        mixed-SLO reading of the index.
        """
        tp = np.array([o.served_throughput for o in self.outcomes])
        if floors is not None:
            floors = np.asarray(floors, dtype=np.float64)
            tp = np.where(floors > 0, tp / np.maximum(floors, 1e-12), tp)
        return jain_index(tp)


def run_tenants(
    machine,
    jobs: List[TenantJob],
    qos: Optional[QosConfig] = None,
) -> MultiTenantResult:
    """Launch every tenant's transport on one machine; collect them all.

    With ``qos`` given, a :class:`QosControlPlane` is admitted and
    installed before any tenant starts (contract order must match job
    order).  Without it, tenants contend under raw max-min fairness —
    the ablation baseline.
    """
    total = sum(j.n_ranks for j in jobs)
    if total > machine.n_ranks:
        raise ConfigurationError(
            f"{total} tenant ranks exceed the machine's {machine.n_ranks}"
        )
    if machine.faults is not None:
        for ev in machine.faults.timeline:
            if "rank" in ev.kind:
                raise ConfigurationError(
                    f"fault kind {ev.kind!r} is rank-addressed; rank "
                    "faults are ambiguous across tenants' local rank "
                    "spaces — use OST faults in multi-tenant runs"
                )
    plane: Optional[QosControlPlane] = None
    if qos is not None:
        if qos.n_tenants != len(jobs):
            raise ConfigurationError(
                f"{qos.n_tenants} contracts for {len(jobs)} tenant jobs"
            )
        plane = QosControlPlane(machine, qos)
        plane.install()

    env = machine.env
    t_start = env.now
    finish: Dict[int, float] = {}
    handles = []
    base = 0
    for t, job in enumerate(jobs):
        view = TenantView(machine, t, base, job.n_ranks)
        base += job.n_ranks
        handle = job.transport.launch(
            view, job.app, output_name=f"{job.name}/output"
        )

        def _mark(_ev, _t=t) -> None:
            finish[_t] = env.now

        handle.done.add_callback(_mark)
        handles.append((job, handle))

    from repro.sim.events import AllSettled

    env.run(until=AllSettled(env, [h.done for _, h in handles]))
    makespan = env.now - t_start

    if plane is not None:
        plane.stop()
    served, throttled = machine.fs.fabric.tenant_accounting()

    outcomes = []
    for t, (job, handle) in enumerate(handles):
        try:
            result, error = handle.collect(), None
        except TransportError as exc:
            result, error = exc.partial, exc
        except FileSystemError as exc:
            result, error = None, TransportError(
                f"{job.name}: {exc}", partial=None
            )
        o = TenantOutcome(
            name=job.name,
            tenant=t,
            result=result,
            error=error,
            completion_seconds=finish.get(t, makespan) - t_start,
        )
        if t < len(served):
            o.served_bytes = float(served[t])
            o.throttled_bytes = float(throttled[t])
        elif result is not None:
            o.served_bytes = float(result.total_bytes)
        if result is not None and t < len(served):
            result.extra["qos_served_bytes"] = o.served_bytes
            result.extra["qos_throttled_bytes"] = o.throttled_bytes
        outcomes.append(o)

    return MultiTenantResult(
        outcomes=outcomes,
        qos=plane.summary() if plane is not None else None,
        makespan=makespan,
    )
