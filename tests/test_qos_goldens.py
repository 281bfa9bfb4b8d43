"""Golden trajectories of multi-tenant runs, with and without QoS.

Every cell plays :func:`repro.qos.run_tenants` on a small Jaguar-like
machine: victims with reserved floors next to a ceiling-capped
scavenger, as in the ``qos`` sweep.  The cells are the raw max-min
baseline, the same tenants under a QoS contract set, the QoS run with
two OSTs fail-stopped mid-write, and a QoS run whose scavenger writes
through MPI-IO.  Each pins, float for float:

* per tenant: completion time, served and throttled bytes, error
  message (if any) and every writer's
  ``(rank, start, end, nbytes, target_group)``;
* the makespan and the floor-normalized Jain index;
* the final ``env.now``, ``events_scheduled`` and the fabric's
  ``settle_count``.

``realloc_count`` is deliberately not pinned: how many reallocations
a settle needs is the fabric's business, the trajectory is not.

For QoS cells the fixture also records how the control plane's limit
pushes split (``pushes``): ``flow_change`` when the flow set changed
since the previous push, else ``equal`` when the pushed limits equal
the installed ones, else ``changed``.

The fixture is ``goldens/qos_tenants.json``; regenerate it and diff it
against a revision with ``python -m tests.golden``.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest

from repro.apps import AppKernel, Variable
from repro.core.transports import AdaptiveTransport, MpiIoTransport
from repro.faults import FaultEvent, FaultPlan
from repro.machines import jaguar
from repro.net.fabric import FlowNetwork
from repro.qos import QosConfig, TenantContract, TenantJob, run_tenants
from repro.units import MB
from tests.golden import num, register

N_OSTS = 16
CAP = 8
SEED = 3
VICTIMS = 3
VICTIM_RANKS = 8
VICTIM_MB = 256.0
SCAVENGER_RANKS = 48
SCAVENGER_MB = 256.0
FAIL_OSTS = (0, 8)

CELLS = ("base", "qos", "qos_faulted", "qos_mpiio_scavenger")


def _spec():
    return jaguar(n_osts=N_OSTS).with_overrides(max_stripe_count=CAP)


def _build(faults=None):
    n_ranks = VICTIMS * VICTIM_RANKS + SCAVENGER_RANKS
    return _spec().build(n_ranks=n_ranks, seed=SEED, faults=faults)


def _config() -> QosConfig:
    pool_bw = N_OSTS * _spec().ost_config.drain_peak
    guaranteed = 0.8 * pool_bw
    weights = [1.0 + 0.25 * i for i in range(VICTIMS)]
    contracts = [
        TenantContract(f"victim{i}",
                       floor=0.8 * guaranteed * w / sum(weights))
        for i, w in enumerate(weights)
    ]
    contracts.append(TenantContract(
        "scavenger", floor=0.08 * guaranteed, ceiling=0.15 * pool_bw,
    ))
    return QosConfig(contracts=tuple(contracts))


def _jobs(scavenger=AdaptiveTransport):
    def app(name: str, mb: float):
        return AppKernel(name, [Variable("x", shape=(int(mb * MB / 8),))])

    jobs = [
        TenantJob(f"victim{i}", AdaptiveTransport(),
                  app("victim", VICTIM_MB), VICTIM_RANKS)
        for i in range(VICTIMS)
    ]
    jobs.append(TenantJob("scavenger", scavenger(),
                          app("scavenger", SCAVENGER_MB), SCAVENGER_RANKS))
    return jobs


class _PushCounter:
    """Split every ``set_tenant_limits`` call into the three kinds."""

    def __init__(self, monkeypatch):
        self.counts = {"equal": 0, "changed": 0, "flow_change": 0}
        self._last_gen = {}
        original = FlowNetwork.set_tenant_limits

        def counted(net, limits):
            gen = net._flowset_gen
            old = net._tenant_limits
            if self._last_gen.get(id(net), gen) != gen:
                kind = "flow_change"
            elif (old is not None and limits is not None
                  and np.array_equal(np.asarray(limits, dtype=float), old)):
                kind = "equal"
            else:
                kind = "changed"
            self._last_gen[id(net)] = gen
            self.counts[kind] += 1
            return original(net, limits)

        monkeypatch.setattr(FlowNetwork, "set_tenant_limits", counted)


def _run_doc(machine, jobs, qos) -> dict:
    floors = _config().floors()
    res = run_tenants(machine, jobs, qos=qos)
    tenants = []
    for o in res.outcomes:
        per_writer = [] if o.result is None else [
            [w.rank, num(w.start), num(w.end), num(w.nbytes), w.target_group]
            for w in o.result.per_writer
        ]
        tenants.append({
            "name": o.name,
            "completion": num(o.completion_seconds),
            "served": num(o.served_bytes),
            "throttled": num(o.throttled_bytes),
            "error": None if o.error is None else str(o.error),
            "per_writer": per_writer,
        })
    return {
        "tenants": tenants,
        "makespan": num(res.makespan),
        "jain": num(res.fairness(floors)),
        "env_now": num(machine.env.now),
        "events_scheduled": machine.env.events_scheduled,
        "settle_count": machine.fs.fabric.settle_count,
    }


@functools.lru_cache(maxsize=None)
def _fault_plan() -> FaultPlan:
    """Fail two OSTs at half the slowest victim's healthy QoS finish."""
    res = run_tenants(_build(), _jobs(), qos=_config())
    victim_done = max(o.completion_seconds for o in res.outcomes[:-1])
    return FaultPlan(events=tuple(
        FaultEvent(time=max(0.5 * victim_done, 1e-3), kind="ost_fail",
                   target=t)
        for t in FAIL_OSTS
    )).with_policy(run_timeout=max(120.0, 50.0 * res.makespan))


def _cell(cell_id: str) -> dict:
    plan = _fault_plan() if cell_id == "qos_faulted" else None
    mp = pytest.MonkeyPatch()
    try:
        pushes = _PushCounter(mp)
        if cell_id == "base":
            doc = _run_doc(_build(), _jobs(), None)
        elif cell_id == "qos":
            doc = _run_doc(_build(), _jobs(), _config())
        elif cell_id == "qos_faulted":
            doc = _run_doc(_build(faults=plan), _jobs(), _config())
            doc["plan"] = plan.to_dict()
        else:
            assert cell_id == "qos_mpiio_scavenger"
            doc = _run_doc(_build(), _jobs(scavenger=MpiIoTransport),
                           _config())
    finally:
        mp.undo()
    if cell_id != "base":
        doc["pushes"] = pushes.counts
    return doc


GOLDEN = register("qos_tenants", sorted(CELLS), _cell)


@pytest.mark.parametrize("cell_id", CELLS)
def test_qos_golden(cell_id):
    GOLDEN.check(cell_id, _cell(cell_id))


def test_fixture_covers_every_cell():
    assert sorted(GOLDEN.cells) == sorted(CELLS)


def test_qos_cells_hit_every_push_kind():
    """The fixture only guards the limit-push paths it reaches."""
    for cell_id in CELLS[1:]:
        pushes = GOLDEN.cells[cell_id]["pushes"]
        assert min(pushes.values()) > 0, (cell_id, pushes)
