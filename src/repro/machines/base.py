"""Machine specification and the runtime bundle built from it."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults import FaultInjector, FaultPlan
    from repro.telemetry import MetricsRegistry, OnlineMonitor
    from repro.trace.tracer import Tracer

from repro.errors import ConfigurationError
from repro.lustre.filesystem import FileSystem
from repro.lustre.mds import MetadataServer
from repro.lustre.ost import OstPool, OstPoolConfig
from repro.net.latency import MessageLatencyModel
from repro.net.topology import Topology
from repro.sim.engine import Environment
from repro.sim.rng import RngRegistry
from repro.units import MB

__all__ = ["MachineSpec", "Machine"]


@dataclass(frozen=True)
class MachineSpec:
    """Everything needed to instantiate a machine + file system.

    A spec is immutable and cheap; :meth:`build` stamps out a live
    :class:`Machine` bound to a fresh simulation environment.
    """

    name: str
    max_cores: int
    cores_per_node: int
    nic_bandwidth: float
    ost_config: OstPoolConfig
    max_stripe_count: int = 160
    default_stripe_size: float = 1.0 * MB
    per_stream_cap: float = 300.0 * MB
    mds_concurrency: int = 8
    mds_mean_service_time: float = 1.0e-3
    latency: MessageLatencyModel = field(default_factory=MessageLatencyModel)

    def __post_init__(self):
        if self.max_cores < 1:
            raise ConfigurationError("max_cores must be >= 1")
        if self.per_stream_cap <= 0:
            raise ConfigurationError("per_stream_cap must be positive")

    @property
    def n_osts(self) -> int:
        return self.ost_config.n_osts

    def with_overrides(self, **kwargs) -> "MachineSpec":
        """A copy of the spec with some fields replaced."""
        return replace(self, **kwargs)

    def build(
        self,
        n_ranks: int,
        seed: int = 0,
        env: Optional[Environment] = None,
        placement: str = "packed",
        extra_service_nodes: int = 0,
        tracer: Optional["Tracer"] = None,
        faults: Optional["FaultPlan"] = None,
        metrics: Optional["MetricsRegistry"] = None,
    ) -> "Machine":
        """Instantiate the machine for a job of ``n_ranks`` processes.

        ``extra_service_nodes`` reserves additional NIC-equipped nodes
        beyond the job's own — hosts for interference generators
        (other batch jobs, attached analysis clusters) that share the
        file system but not the job's compute nodes.

        ``tracer`` attaches an observability tracer to ``env``; when
        omitted the active instrumentation session's tracer
        (``repro.session.instrumented``) is used if it has one, so
        harnesses can trace whole sweeps without threading the tracer
        through every call site.  Either way it goes on the
        environment (``machine.env.tracer``), which every layer reads.

        ``faults`` installs a fault plan; when omitted a plan file named
        by ``REPRO_FAULTS`` is used.  With no plan from either source,
        ``machine.faults`` is None and all fault machinery is off.

        ``metrics`` attaches a telemetry registry to ``env`` (and a
        non-perturbing settle-hook monitor feeding it); like ``tracer``
        it falls back to the active session's registry when omitted.

        Multi-tenant bandwidth contracts are not part of a build: they
        go to ``repro.qos.run_tenants(qos=...)`` explicitly.
        """
        if n_ranks < 1:
            raise ConfigurationError("n_ranks must be >= 1")
        if n_ranks > self.max_cores:
            raise ConfigurationError(
                f"{self.name} has {self.max_cores} cores; "
                f"cannot run {n_ranks} ranks"
            )
        if extra_service_nodes < 0:
            raise ConfigurationError("extra_service_nodes must be >= 0")
        if env is None:
            env = Environment()
        from repro.session import active_session

        # The environment is the instruments' one holder, set before
        # any layer is built: the fabric and the file system resolve
        # their instrument handles from it at construction.
        session = active_session()
        if session is not None:
            tracer = tracer if tracer is not None else session.tracer
            metrics = metrics if metrics is not None else session.registry
        if tracer is not None:
            env.set_tracer(tracer)
        if metrics is not None:
            env.set_metrics(metrics)
        rngs = RngRegistry(seed)
        topology = Topology(
            n_ranks=n_ranks,
            cores_per_node=self.cores_per_node,
            nic_bandwidth=self.nic_bandwidth,
            placement=placement,
        )
        pool = OstPool(self.ost_config)
        mds = MetadataServer(
            env,
            concurrency=self.mds_concurrency,
            mean_service_time=self.mds_mean_service_time,
            rng=rngs.get("mds.service"),
        )
        import numpy as np

        source_caps = np.concatenate(
            [
                topology.nic_capacities(),
                np.full(extra_service_nodes, self.nic_bandwidth),
            ]
        )
        fs = FileSystem(
            env,
            pool,
            source_caps,
            max_stripe_count=self.max_stripe_count,
            default_stripe_size=self.default_stripe_size,
            per_stream_cap=self.per_stream_cap,
            mds=mds,
        )
        machine = Machine(
            spec=self,
            env=env,
            topology=topology,
            pool=pool,
            fs=fs,
            rngs=rngs,
            service_node_base=topology.n_nodes,
            n_service_nodes=extra_service_nodes,
        )
        if env.metrics is not None:
            # A settle-hook monitor (with an auto-sized straggler
            # detector) feeds per-OST time series into the registry
            # without perturbing the simulation: telemetry on/off is
            # bit-identical by construction.
            from repro.telemetry import OnlineMonitor

            machine.monitor = OnlineMonitor(machine, env.metrics)
        from repro.faults import FaultInjector, resolve_fault_plan

        plan = resolve_fault_plan(faults)
        if plan is not None:
            machine.faults = FaultInjector(
                env, fs, plan, rngs, n_ranks=n_ranks
            )
        return machine


@dataclass
class Machine:
    """A live machine: environment + topology + file system + RNGs."""

    spec: MachineSpec
    env: Environment
    topology: Topology
    pool: OstPool
    fs: FileSystem
    rngs: RngRegistry
    service_node_base: int = 0
    n_service_nodes: int = 0
    faults: Optional["FaultInjector"] = None
    monitor: Optional["OnlineMonitor"] = None

    def service_node(self, i: int) -> int:
        """Source index of the i-th reserved interference node."""
        if not 0 <= i < self.n_service_nodes:
            raise IndexError(
                f"service node {i} not reserved (have {self.n_service_nodes})"
            )
        return self.service_node_base + i

    @property
    def n_ranks(self) -> int:
        return self.topology.n_ranks

    @property
    def n_osts(self) -> int:
        return self.pool.n_sinks

    def node_of(self, rank: int) -> int:
        return self.topology.node_of(rank)
