"""Randomized equivalence of incremental vs batch reallocation.

The incremental reallocator (:meth:`FlowNetwork._incremental_rates`)
must be *bit-identical* to the batch allocator — the repo's
parallel==serial determinism contract rides on every settle producing
the same floats no matter which path computed them.  These tests drive
a live network through thousands of randomized mutations (flow
arrivals, cancellations, sink fail-stops, capacity brownouts, elapsed
time with completions) and after every single operation recompute the
allocation from scratch with :func:`max_min_fair_rates`, asserting
exact ``==`` agreement — no tolerances anywhere.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import OstFailedError
from repro.net.fabric import (
    FlowNetwork,
    UniformSinkPool,
    _BIG_RATE,
    max_min_fair_rates,
)
from repro.sim.engine import Environment
from repro.sim.events import EventAborted


class MutableCapPool:
    """Sink pool with externally settable per-sink capacities."""

    def __init__(self, caps: np.ndarray):
        self.n_sinks = len(caps)
        self._caps = np.asarray(caps, dtype=np.float64).copy()

    def set_capacity(self, sink: int, cap: float) -> None:
        self._caps[sink] = float(cap)

    def advance(self, dt, inflow, now):
        pass

    def capacities(self, counts, now):
        return self._caps

    def next_transition(self, inflow, counts, now):
        return float("inf")


def swallow(ev):
    """Park flow events so aborts/failures don't crash the run."""
    def _cb(e):
        if not e.ok:
            assert isinstance(e.value, (EventAborted, OstFailedError))
    ev.add_callback(_cb)


def _assert_alloc_matches_batch(net: FlowNetwork) -> None:
    """Live rates must equal a from-scratch batch allocation, exactly."""
    act = np.nonzero(net._active)[0]
    if act.size == 0:
        assert not net._inflow.any()
        return
    caps = net._last_caps
    assert caps is not None
    expected = max_min_fair_rates(
        net._src[act], net._dst[act], net._cap_src, caps,
        np.full(act.size, net.flow_cap),
    )
    got = net._rate[act]
    assert (got == expected).all(), (
        f"incremental/batch divergence: max |delta| = "
        f"{np.abs(got - expected).max()}"
    )
    inflow = np.bincount(
        net._dst[act],
        weights=np.minimum(got, _BIG_RATE),
        minlength=net.n_sinks,
    )
    assert (net._inflow == inflow).all()


def _churn(seed: int, n_ops: int, cap_src_val: float) -> FlowNetwork:
    """Drive a network through n_ops random mutations, checking each."""
    rng = np.random.default_rng(seed)
    n_src, n_sinks = 64, 16
    env = Environment()
    pool = MutableCapPool(np.full(n_sinks, 2e8))
    # One cap per network, finite or not: every flow carries it, so
    # caps tie on purpose (exercise multi-wave waterfills).  Every
    # finite cap binds: it is well below the 2e8 a sink starts with, so
    # flows on lightly loaded sinks sit at it.
    flow_cap = (
        np.inf
        if rng.random() < 0.3
        else float(rng.choice([5e6, 2e7, 4e7, 9e7]))
    )
    net = FlowNetwork(env, np.full(n_src, cap_src_val), pool,
                      flow_cap=flow_cap)
    live: list[int] = []

    for _ in range(n_ops):
        op = rng.random()
        if op < 0.45 or not live:
            ev, fid = net.start_flow_with_id(
                int(rng.integers(n_src)),
                int(rng.integers(n_sinks)),
                float(rng.uniform(1e6, 1e12)),
            )
            swallow(ev)
            live.append(fid)
        elif op < 0.70:
            fid = live.pop(int(rng.integers(len(live))))
            net.cancel_flow(fid)
        elif op < 0.80:
            victim = int(rng.integers(n_sinks))
            net.fail_sink(victim)
            live = [f for f in live if f in net._slot_of]
        elif op < 0.93:
            # Brownout / recovery: capacity change at one sink.
            sink = int(rng.integers(n_sinks))
            pool.set_capacity(sink, float(rng.uniform(1e7, 3e8)))
            net.invalidate()
        else:
            # Let time pass so flows complete inside _settle.
            env.run(until=env.now + float(rng.uniform(1e-4, 50.0)))
            live = [f for f in live if f in net._slot_of]
        net.invalidate()
        _assert_alloc_matches_batch(net)
    return net


def test_incremental_matches_batch_exactly():
    """Thousands of random ops; exact equality after every one."""
    net = _churn(seed=7, n_ops=1500, cap_src_val=1.6e9)
    # The point of the test is the fast path: make sure it actually ran.
    assert net.incremental_count > 200
    assert net.realloc_count > net.incremental_count


def test_incremental_matches_batch_under_source_pressure():
    """Tight source NICs force general-allocator fallbacks; the regime
    flips back and forth and every flip must stay exact."""
    net = _churn(seed=11, n_ops=800, cap_src_val=3e7)
    assert net.realloc_count > 0


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_incremental_matches_batch_more_seeds(seed):
    _churn(seed=seed, n_ops=400, cap_src_val=1.6e9)


def test_group_release_coalesces_to_one_settle():
    """N same-instant flow starts settle once, and the result is the
    batch allocation of the full group."""
    env = Environment()
    pool = MutableCapPool(np.full(8, 2e8))
    net = FlowNetwork(env, np.full(32, 1.6e9), pool)

    def release(n):
        for i in range(n):
            swallow(net.start_flow(i % 32, i % 8, 1e9))
        yield env.timeout(0.0)

    env.process(release(64), name="group")
    env.run(until=1e-6)
    # 64 arrivals, one deferred settle (63 mutations coalesced).
    assert net.coalesced_count >= 63
    assert net.realloc_count == 1
    _assert_alloc_matches_batch(net)


def test_invalidate_is_synchronous_and_folds_deferral():
    env = Environment()
    net = FlowNetwork(env, np.full(4, 1e9), UniformSinkPool(2, 1e8))
    swallow(net.start_flow(0, 0, 1e9))
    assert net._settle_pending
    net.invalidate()
    assert not net._settle_pending
    rates = net._rate[net._active]
    assert rates.size == 1 and float(rates[0]) == 1e8
    # The deferred entry was cancelled, not left to fire a second
    # settle at the same instant.
    settles = net.settle_count
    env.run(until=1e-9)
    assert net.settle_count == settles


def _twin_churn(seed: int, n_ops: int, tag_tenants: bool) -> list:
    """Replay one op sequence; optionally stamp tenant ids on flows.

    Returns the full rate trajectory so two replays can be compared
    float-for-float.
    """
    rng = np.random.default_rng(seed)
    n_src, n_sinks = 32, 8
    env = Environment()
    pool = MutableCapPool(np.full(n_sinks, 2e8))
    net = FlowNetwork(env, np.full(n_src, 1.6e9), pool)
    live: list[int] = []
    trajectory = []
    for _ in range(n_ops):
        op = rng.random()
        if op < 0.5 or not live:
            # Draw unconditionally so both replays consume the same
            # RNG stream; only the tagged one uses the value.
            draw = int(rng.integers(4))
            tenant = draw if tag_tenants else -1
            ev, fid = net.start_flow_with_id(
                int(rng.integers(n_src)),
                int(rng.integers(n_sinks)),
                float(rng.uniform(1e6, 1e11)),
                tenant=tenant,
            )
            swallow(ev)
            live.append(fid)
        elif op < 0.75:
            net.cancel_flow(live.pop(int(rng.integers(len(live)))))
        else:
            env.run(until=env.now + float(rng.uniform(1e-4, 5.0)))
            live = [f for f in live if f in net._slot_of]
        net.invalidate()
        act = np.nonzero(net._active)[0]
        trajectory.append((env.now, net._rate[act].tolist()))
    return trajectory


def test_tenant_tagging_is_inert_without_limits():
    """QoS disabled (no ``set_tenant_limits`` call): tenant-stamped
    flows must allocate bit-identically to untagged ones.  This is the
    guard that QoS plumbing costs nothing when the feature is off."""
    tagged = _twin_churn(seed=23, n_ops=600, tag_tenants=True)
    plain = _twin_churn(seed=23, n_ops=600, tag_tenants=False)
    assert tagged == plain
