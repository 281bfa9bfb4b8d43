"""A repeat settle at an already-settled instant costs nothing.

A settle requested at the instant the last full settle ran, with no
dirty sink, no tenant-limit change and no flow byte count adjusted
since, re-arms the deadline that settle recorded instead of redoing it
(``FlowNetwork`` Notes).  That is pure reuse, so the tests here drive a
network through seeded churn next to a reference whose every settle is
a full one and require rates, remaining bytes, inflow, pool state,
tenant ledgers, the live calendar and both counters to be ``==`` after
every operation, and the traces to match.  The counter tests pin what
a repeat skips and what it must still do.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.lustre.ost import OstPool, OstPoolConfig
from repro.net.fabric import FlowNetwork
from repro.sim.engine import Environment
from repro.trace import Tracer
from repro.units import MB
from tests.simcal import next_instant
from tests.test_fabric_incremental import MutableCapPool, swallow

N_SRC = 12
N_SINKS = 6
N_TENANTS = 3


class ForcedSettleNetwork(FlowNetwork):
    """Reference: every settle is a full one, as ``invalidate()`` is."""

    def _settle(self) -> None:
        self._settled_at = None
        super()._settle()


class CountingPool(MutableCapPool):
    """A fixed-capacity pool that counts the settle work asked of it."""

    def __init__(self, caps):
        super().__init__(caps)
        self.transition = float("inf")
        self.calls = 0

    def capacities(self, counts, now):
        self.calls += 1
        return super().capacities(counts, now)

    def next_transition(self, inflow, counts, now):
        self.calls += 1
        return self.transition


def _build(cls, traced: bool):
    env = Environment()
    if traced:
        env.set_tracer(Tracer())
    # A small cache, so caches fill and drain back through the
    # hysteresis band within the churn and the pool's next transition
    # is often the deadline.
    pool = OstPool(OstPoolConfig(n_osts=N_SINKS, cache_capacity=64 * MB))
    net = cls(env, np.full(N_SRC, 800 * MB), pool)
    pool.bind(env, net.invalidate)
    return net, pool


def _state(net: FlowNetwork, pool: OstPool) -> tuple:
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
        net._remaining[act].tolist(),
        net._inflow.tolist(),
        pool.cache_level.tolist(),
        pool.bytes_absorbed.tolist(),
        pool.bytes_drained.tolist(),
        pool._full.tolist(),
        ledger(net.tenant_served),
        ledger(net.tenant_throttled),
        ledger(net._tenant_throttle_rate),
        calendar,
        net.settle_count,
        net.env.events_scheduled,
    )


def _churn(cls, seed: int, n_ops: int, traced: bool = False):
    """Replay one seeded op sequence; return the state after each op.

    Ops: tagged and untagged arrivals, cancellations, sink fail-stops,
    byte-count adjustments, equal and changed limit pushes, load
    multiplier changes (which invalidate through the pool's binding),
    bare ``invalidate()`` calls, same-instant ``sync()`` bursts and
    elapsed time.
    """
    rng = np.random.default_rng(seed)
    net, pool = _build(cls, traced)
    hooks = []
    net.on_settle = hooks.append
    limits = rng.uniform(50 * MB, 400 * MB, size=N_TENANTS)
    net.set_tenant_limits(limits.copy())
    live: list = []
    states = []

    def arrive():
        ev, fid = net.start_flow_with_id(
            int(rng.integers(N_SRC)), int(rng.integers(N_SINKS)),
            float(rng.uniform(1 * MB, 400 * MB)),
            tenant=int(rng.integers(-1, N_TENANTS)),
        )
        swallow(ev)
        live.append(fid)

    for _ in range(n_ops):
        op = rng.random()
        if op < 0.20 or not live:
            arrive()
        elif op < 0.26:
            net.cancel_flow(live.pop(int(rng.integers(len(live)))))
        elif op < 0.28:
            net.fail_sink(int(rng.integers(N_SINKS)))
        elif op < 0.36:
            fid = live[int(rng.integers(len(live)))]
            delivered, _ = net.flow_progress(fid)
            left = net._nbytes[net._slot_of[fid]] - delivered
            delta = (-rng.uniform(0.0, 0.9) * left if rng.random() < 0.7
                     else rng.uniform(0.0, 50 * MB))
            net.adjust_flow_bytes(fid, float(delta))
            if rng.random() < 0.5:
                net.sync()
        elif op < 0.44:
            net.set_tenant_limits(limits.copy())  # an equal push
        elif op < 0.50:
            limits = rng.uniform(50 * MB, 400 * MB, size=N_TENANTS)
            limits[rng.random(N_TENANTS) < 0.15] = np.inf
            net.tenant_accounting()
            net.set_tenant_limits(limits.copy())
        elif op < 0.56:
            pool.set_load_multiplier(float(rng.uniform(0.2, 1.0)),
                                     osts=int(rng.integers(N_SINKS)))
        elif op < 0.60:
            net.invalidate()
        elif op < 0.78:
            for _ in range(int(rng.integers(1, 5))):
                net.sync()
        else:
            # Let time pass: deferred settles and timers run, flows
            # complete, caches fill and drain.
            net.env.run(until=net.env.now + float(rng.uniform(1e-3, 1.0)))
        if rng.random() < 0.5:
            net.env.run(until=net.env.now)  # drain this instant
        live = [f for f in live if f in net._slot_of]
        states.append(_state(net, pool))
    assert len(hooks) == net.settle_count
    return net, pool, states


class _CountCapacities:
    """Count ``OstPool.capacities`` calls: one per full settle."""

    def __init__(self, monkeypatch):
        self.calls = 0
        original = OstPool.capacities

        def counted(pool, counts, now):
            self.calls += 1
            return original(pool, counts, now)

        monkeypatch.setattr(OstPool, "capacities", counted)


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_repeats_match_forced_settles(seed, monkeypatch):
    """Same op sequence, exact equality of every state after every op."""
    full = _CountCapacities(monkeypatch)
    net, _, got = _churn(FlowNetwork, seed, n_ops=400)
    fast_calls, full.calls = full.calls, 0
    ref, _, want = _churn(ForcedSettleNetwork, seed, n_ops=400)
    assert len(got) == len(want)
    for i, (g, w) in enumerate(zip(got, want)):
        assert g == w, f"op {i}: the repeat path diverged from a full settle"
    assert net.settle_count == ref.settle_count == full.calls
    # The churn must exercise repeats, and they must skip the pool.
    assert fast_calls < full.calls - 100


def test_traced_repeats_write_the_forced_trace():
    net, _, got = _churn(FlowNetwork, 5, n_ops=300, traced=True)
    ref, _, want = _churn(ForcedSettleNetwork, 5, n_ops=300, traced=True)
    assert got == want
    events = net.env.tracer.events
    assert events == ref.env.tracer.events
    assert any(e.name == "reallocate" for e in events)


def _settled():
    """A network with one 1e8-byte flow on sink 0, settled at t = 0.25."""
    env = Environment()
    pool = CountingPool(np.array([1e8, 1e8]))
    net = FlowNetwork(env, np.array([1.6e9, 1.6e9]), pool)
    done = []
    net.start_flow(0, 0, 1e8).add_callback(
        lambda ev: done.append(ev.value.end_time))
    env.run(until=0.25)
    net.sync()  # a full settle: time passed since the last one
    return net, pool, done


def test_sync_bursts_skip_the_pool_but_count_and_call_the_hook():
    net, pool, _ = _settled()
    hooks = []
    net.on_settle = hooks.append
    settles, calls = net.settle_count, pool.calls
    for _ in range(5):
        net.sync()
    assert pool.calls == calls
    assert net.settle_count == settles + 5
    assert hooks == [0.25] * 5


def test_invalidate_at_a_settled_instant_is_full():
    net, pool, done = _settled()
    calls = pool.calls
    pool.set_capacity(0, 5e7)
    net.invalidate()
    assert pool.calls == calls + 2  # capacities and next_transition
    assert net._rate[net._slot_of[0]] == 5e7
    net.env.run()
    assert done == [1.75]  # 7.5e7 bytes left at 5e7 B/s


def test_deferred_settle_after_a_no_op_mutation_is_a_repeat():
    """A mutation that changes nothing the fabric keeps a record of (a
    fail-stop of a sink with no flows) asks for a settle that repeats."""
    net, pool, done = _settled()
    calls, settles = pool.calls, net.settle_count
    net.fail_sink(1)
    net.env.run(until=net.env.now)
    assert net.settle_count == settles + 1
    assert pool.calls == calls
    net.env.run()
    assert done == [1.0]


def test_adjust_then_sync_rearms_at_the_new_finish():
    net, pool, done = _settled()
    calls = pool.calls
    assert next_instant(net.env) == 1.0
    assert net.adjust_flow_bytes(0, -5e7) == 2.5e7
    net.sync()
    assert pool.calls == calls + 2
    assert next_instant(net.env) == 0.5
    net.env.run()
    assert done == [0.5]


class _Enough(Exception):
    pass


def test_timer_refire_at_the_settled_instant_rearms():
    """A pool that reports a transition due now re-fires the timer at
    the settled instant: each re-fire is a repeat and arms it again."""
    net, pool, _ = _settled()
    pool.transition = 0.0
    net.invalidate()  # a full settle that arms the timer at delay 0
    calls, settles = pool.calls, net.settle_count

    def hook(now):
        if net.settle_count == settles + 50:
            raise _Enough

    net.on_settle = hook
    with pytest.raises(_Enough):
        net.env.run()
    assert net.env.now == 0.25
    assert pool.calls == calls


@pytest.mark.parametrize("cls", [FlowNetwork, ForcedSettleNetwork])
def test_traced_zero_flow_repeats_write_every_record(cls):
    env = Environment()
    env.set_tracer(Tracer())
    net = cls(env, np.array([1.6e9]), CountingPool(np.array([1e8])))
    net.start_flow(0, 0, 1e8)
    env.run()  # the flow completes at t = 1; the network is empty
    for _ in range(3):
        net.sync()
    records = [(e.ph, e.name, e.ts, e.args) for e in env.tracer.events
               if e.name in ("reallocate", "inflow")]
    zero_flow = [("i", "reallocate", 1.0,
                  {"flows": 0, "total_inflow": 0.0}),
                 ("C", "inflow", 1.0, {"bytes_per_s": 0.0})]
    assert records[-8:] == zero_flow * 4
