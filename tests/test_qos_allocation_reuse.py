"""QoS reallocation pays only for what changed, bit-identically.

A tenant-limit push equal to the installed limits keeps the current
allocation (its settle takes the skip-reallocation path), and the
shadow uncapped pass that prices throttling is reused while the flow
set and the sink capacities stand.  Both are pure reuse: the tests
here drive a network through randomized churn next to a reference
network that recomputes everything on every push (two full passes, as
before the reuse existed) and require every rate, tenant ledger and
calendar entry to be ``==`` after every operation.  The counter tests
pin which pushes reallocate and how many allocator passes they cost.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.net import fabric
from repro.net.fabric import FlowNetwork, UniformSinkPool
from repro.sim.engine import Environment
from tests.test_fabric_incremental import MutableCapPool, swallow

N_SRC = 24
N_SINKS = 8
N_TENANTS = 3
SINK_CAP = 2e8


class RecomputeNetwork(FlowNetwork):
    """Reference: every push reallocates, every QoS pass is two passes.

    ``_qos_rates`` is the two-pass allocation with no memo; a push
    invalidates the allocation whether or not the limits changed.
    """

    def set_tenant_limits(self, limits):
        super().set_tenant_limits(limits)
        self._limits_changed = True
        self._shares_valid = False

    def _qos_rates(self, act_slots, dst, counts, caps):
        limits = self._tenant_limits
        n_tenants = len(limits)
        src = self._src[act_slots]
        fcap = np.full(act_slots.size, self.flow_cap)
        ten = self._tenant[act_slots]
        tagged = ten >= 0
        uncapped, _ = fabric._max_min_shares(
            src, dst, self._cap_src, caps, fcap,
            counts_src=self._src_counts, counts_dst=counts,
        )
        if not tagged.any():
            self._tenant_throttle_rate = np.zeros(n_tenants)
            return uncapped
        tcnt = np.bincount(ten[tagged], minlength=n_tenants)
        with np.errstate(divide="ignore", invalid="ignore"):
            per_flow = np.where(tcnt > 0, limits / tcnt, np.inf)
        ten_t = ten[tagged]
        eff = fcap.copy()
        eff[tagged] = np.minimum(fcap[tagged], per_flow[ten_t])
        rates, _ = fabric._max_min_shares(
            src, dst, self._cap_src, caps, eff,
            counts_src=self._src_counts, counts_dst=counts,
        )
        self._tenant_throttle_rate = np.maximum(
            np.bincount(ten_t, weights=uncapped[tagged],
                        minlength=n_tenants)
            - np.bincount(ten_t, weights=rates[tagged],
                          minlength=n_tenants),
            0.0,
        )
        return rates


def _build(cls, n_src=N_SRC, n_sinks=N_SINKS, flow_cap=np.inf):
    env = Environment()
    pool = MutableCapPool(np.full(n_sinks, SINK_CAP))
    return cls(env, np.full(n_src, 1.6e9), pool, flow_cap=flow_cap), pool


def _state(net: FlowNetwork) -> tuple:
    """Everything a settle decides, as plain lists for exact ``==``."""
    act = np.nonzero(net._active)[0]

    def ledger(arr):
        return None if arr is None else arr.tolist()

    calendar = sorted(
        (t, prio) for t, prio, _, ev in net.env._queue if not ev._cancelled
    )
    return (
        net.env.now,
        act.tolist(),
        net._rate[act].tolist(),
        net._inflow.tolist(),
        ledger(net.tenant_served),
        ledger(net.tenant_throttled),
        ledger(net._tenant_throttle_rate),
        calendar,
        net.settle_count,
        net.env.events_scheduled,
    )


def _churn(cls, seed: int, n_ops: int):
    """Replay one randomized op sequence; return the state after each op.

    Ops: tagged and untagged arrivals, cancellations, sink fail-stops,
    capacity changes, elapsed time with completions, and limit pushes
    that repeat the installed limits, change them, clear them, or land
    in the same instant as an arrival or a capacity change.
    """
    rng = np.random.default_rng(seed)
    # One cap per network, finite or not; the tenant limits still give
    # the flows mixed effective caps.  Every finite cap binds: it is
    # well below the 2e8 a sink starts with, so flows on lightly
    # loaded sinks sit at it (about a third of the flows per settle).
    flow_cap = np.inf if rng.random() < 0.5 else float(
        rng.choice([1e7, 2e7, 4e7]))
    net, pool = _build(cls, flow_cap=flow_cap)
    pushes = {"equal": 0, "changed": 0}
    limits = rng.uniform(5e7, 4e8, size=N_TENANTS)

    def new_limits():
        lim = rng.uniform(5e7, 4e8, size=N_TENANTS)
        lim[rng.random(N_TENANTS) < 0.15] = np.inf
        lim[rng.random(N_TENANTS) < 0.05] = 0.0
        return lim

    def push(lim):
        same = (lim is None and net._tenant_limits is None) or (
            lim is not None and net._tenant_limits is not None
            and np.array_equal(lim, net._tenant_limits))
        pushes["equal" if same else "changed"] += 1
        net.set_tenant_limits(None if lim is None else lim.copy())

    def arrive():
        src = int(rng.integers(N_SRC))
        sink = int(rng.integers(N_SINKS))
        nbytes = float(rng.uniform(1e6, 5e10))
        ev, fid = net.start_flow_with_id(
            src, sink, nbytes, tenant=int(rng.integers(-1, N_TENANTS)),
        )
        swallow(ev)
        live.append(fid)

    push(limits)
    live: list = []
    states = []
    for _ in range(n_ops):
        op = rng.random()
        if op < 0.25 or not live:
            arrive()
        elif op < 0.33:
            net.cancel_flow(live.pop(int(rng.integers(len(live)))))
        elif op < 0.36:
            net.fail_sink(int(rng.integers(N_SINKS)))
        elif op < 0.44:
            pool.set_capacity(int(rng.integers(N_SINKS)),
                              float(rng.uniform(2e7, 3e8)))
            if rng.random() < 0.5:
                push(limits)  # an equal push in a capacity-change instant
            net.invalidate()
        elif op < 0.62:
            push(limits)
        elif op < 0.74:
            limits = new_limits()
            push(limits)
            if rng.random() < 0.3:
                push(limits)  # repeated within the same instant
        elif op < 0.78:
            push(limits)
            arrive()  # an equal push in an arrival's instant
        elif op < 0.80:
            push(None)
            if rng.random() < 0.5:
                push(None)
            push(limits)
        else:
            # Let time pass: deferred settles run, flows complete.
            net.env.run(until=net.env.now + float(rng.uniform(1e-3, 3.0)))
        if rng.random() < 0.5:
            net.env.run(until=net.env.now)  # drain this instant
        live = [f for f in live if f in net._slot_of]
        states.append(_state(net))
    return net, states, pushes


class _CountPasses:
    """Count ``_max_min_shares`` calls made by a network's settles."""

    def __init__(self, monkeypatch):
        self.calls = 0
        original = fabric._max_min_shares

        def counted(*args, **kwargs):
            self.calls += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(fabric, "_max_min_shares", counted)


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_reuse_matches_full_recompute(seed, monkeypatch):
    """Same op sequence, exact equality of every state after every op."""
    passes = _CountPasses(monkeypatch)
    net, got, pushes = _churn(FlowNetwork, seed, n_ops=500)
    fast_passes, passes.calls = passes.calls, 0
    ref, want, ref_pushes = _churn(RecomputeNetwork, seed, n_ops=500)
    assert pushes == ref_pushes
    for i, (g, w) in enumerate(zip(got, want)):
        assert g == w, f"op {i}: reuse diverged from full recompute"
    assert len(got) == len(want)
    # The churn must exercise both push kinds and both reuse rules.
    assert pushes["equal"] > 50 and pushes["changed"] > 50
    assert net.realloc_count < ref.realloc_count
    assert fast_passes < passes.calls
    assert net.settle_count == ref.settle_count


def _qos_net(monkeypatch):
    """Two tagged tenants on four sinks, limits installed and settled."""
    net, pool = _build(FlowNetwork, n_src=8, n_sinks=4)
    for i in range(6):
        swallow(net.start_flow(i, i % 4, 1e12, tenant=i % 2))
    net.set_tenant_limits(np.array([1e8, 3e8]))
    net.env.run(until=1e-3)
    return net, pool, _CountPasses(monkeypatch)


def test_equal_push_keeps_allocation_but_settles(monkeypatch):
    net, _, passes = _qos_net(monkeypatch)
    before = _state(net)
    reallocs, settles = net.realloc_count, net.settle_count
    net.set_tenant_limits(np.array([1e8, 3e8]))
    assert net._settle_pending, "an equal push must still request a settle"
    net.env.run(until=net.env.now)
    assert net.realloc_count == reallocs
    assert net.settle_count == settles + 1
    assert passes.calls == 0
    after = _state(net)
    for i in (2, 3, 6):  # rates, inflow, throttle rate
        assert after[i] == before[i]


def test_changed_push_reruns_only_the_capped_pass(monkeypatch):
    net, _, passes = _qos_net(monkeypatch)
    reallocs = net.realloc_count
    net.set_tenant_limits(np.array([2e8, 3e8]))
    net.env.run(until=net.env.now)
    assert net.realloc_count == reallocs + 1
    assert passes.calls == 1


def test_arrival_recomputes_the_shadow_pass(monkeypatch):
    net, _, passes = _qos_net(monkeypatch)
    swallow(net.start_flow(7, 0, 1e12, tenant=0))
    net.env.run(until=net.env.now)
    assert passes.calls == 2


def test_completion_recomputes_the_shadow_pass(monkeypatch):
    net, _, passes = _qos_net(monkeypatch)
    swallow(net.start_flow(7, 0, 1e3, tenant=1))
    net.env.run(until=net.env.now)
    passes.calls = 0
    net.env.run(until=net.env.now + 1.0)  # the 1 kB flow completes
    assert passes.calls == 2


def test_capacity_change_recomputes_the_shadow_pass(monkeypatch):
    net, pool, passes = _qos_net(monkeypatch)
    pool.set_capacity(2, 5e7)
    net.invalidate()
    assert passes.calls == 2


def test_clearing_limits_twice_keeps_allocation(monkeypatch):
    net, _, _ = _qos_net(monkeypatch)
    net.set_tenant_limits(None)
    net.env.run(until=net.env.now)
    reallocs = net.realloc_count
    net.set_tenant_limits(None)
    net.env.run(until=net.env.now)
    assert net.realloc_count == reallocs


@pytest.mark.parametrize("bad", [[np.nan, 1e8], [1e8, -1.0]])
def test_nan_or_negative_limit_rejected(bad):
    net, _ = _build(FlowNetwork, n_src=2, n_sinks=2)
    net.set_tenant_limits(np.array([1e8, 2e8]))
    with pytest.raises(ValueError):
        net.set_tenant_limits(np.array(bad))
    assert net._tenant_limits.tolist() == [1e8, 2e8]


def test_infinite_limit_lets_flow_finish():
    net, _ = _build(FlowNetwork, n_src=2, n_sinks=2)
    ev = net.start_flow(0, 0, 1e3, tenant=0)
    net.set_tenant_limits(np.array([np.inf, 1e8]))
    net.env.run(until=50.0)
    assert ev.processed and ev.ok
    assert not net._slot_of


def test_changed_push_keeps_the_elapsed_throttled_bytes():
    """A changed push integrates the interval before it at the old
    throttle rate, with no ``tenant_accounting()`` call in between."""
    env = Environment()
    net = FlowNetwork(env, np.full(2, 1.6e9), UniformSinkPool(2, 1e8))
    swallow(net.start_flow(0, 0, 1e12, tenant=0))
    swallow(net.start_flow(1, 1, 1e12, tenant=1))
    net.set_tenant_limits(np.array([5e7, np.inf]))  # throttles 5e7 B/s
    env.run(until=1.0)
    net.set_tenant_limits(np.array([2e7, np.inf]))  # throttles 8e7 B/s
    env.run(until=2.0)
    served, throttled = net.tenant_accounting()
    assert throttled.tolist() == [1.3e8, 0.0]
    assert served.tolist() == [7e7, 2e8]
