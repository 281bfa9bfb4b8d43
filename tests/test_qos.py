"""Multi-tenant QoS: token conservation, determinism, degradation.

Three contracts pinned here:

* the token-bucket ledger conserves bytes exactly — borrowing moves
  bandwidth between tenants without ever creating it, including the
  work-conserving unreserved mint;
* a tenant sweep is bit-identical run serially or fanned out over
  worker processes (the repo-wide parallel==serial contract);
* degradation is graceful — an over-contract tenant is backpressured,
  never errored, and every throttled byte is ledgered.
"""

from __future__ import annotations

import json
from functools import partial

import numpy as np
import pytest

from repro.errors import AdmissionError, ConfigurationError
from repro.qos import (
    CongestionController,
    QosConfig,
    TenantContract,
    TenantJob,
    TokenBucketArray,
    jain_index,
    run_tenants,
)


# -- token buckets -------------------------------------------------------

def _random_traffic(buckets: TokenBucketArray, seed: int, ticks: int):
    """Arbitrary spend/refill churn; returns nothing, mutates buckets."""
    rng = np.random.default_rng(seed)
    n = buckets.n_tenants
    for _ in range(ticks):
        dt = float(rng.uniform(0.01, 0.2))
        demand = rng.uniform(0.5, 3.0, size=n) * buckets.floors
        # Tenant 0 stays idle throughout: its bucket tops out and its
        # mint becomes the surplus the busy tenants borrow; the rest
        # occasionally pause too.
        demand[0] = 0.0
        demand[rng.random(n) < 0.2] = 0.0
        buckets.refill(dt, demand)
        served = np.minimum(demand * dt, buckets.tokens)
        buckets.spend(served)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_token_conservation_across_borrowing(seed):
    rng = np.random.default_rng(100 + seed)
    floors = rng.uniform(1e6, 5e8, size=5)
    caps = floors * rng.uniform(0.5, 4.0, size=5)
    buckets = TokenBucketArray(floors, caps)
    _random_traffic(buckets, seed, ticks=400)
    assert buckets.conservation_error() < 1e-3  # bytes, vs ~1e11 moved
    assert (buckets.tokens >= 0).all()
    assert (buckets.tokens <= buckets.capacity + 1e-6).all()
    assert buckets.borrowed > 0, "churn must exercise borrowing"
    assert buckets.discarded >= 0


def test_token_conservation_with_unreserved_mint():
    floors = np.array([1e8, 2e8])
    buckets = TokenBucketArray(floors, floors * 2, unreserved=3e8)
    _random_traffic(buckets, seed=7, ticks=300)
    assert buckets.conservation_error() < 1e-3
    # The unreserved slice is minted every tick on top of the floors.
    assert buckets.minted > float(floors.sum()) * 0.01 * 300


def test_borrowing_moves_idle_mint_to_busy():
    floors = np.array([1e8, 1e8])
    buckets = TokenBucketArray(floors, floors * 4.0)
    # Tenant 0 idle (bucket already full), tenant 1 drained and hungry.
    buckets.tokens[:] = (buckets.capacity[0], 0.0)
    granted = buckets.refill(1.0, demand=np.array([0.0, 5e8]))
    assert granted[0] == 0.0
    assert granted[1] > 0.0, "idle tenant's mint must flow to the busy one"
    assert buckets.conservation_error() < 1e-6


def test_unreserved_mint_reaches_all_busy_tenants():
    # Every tenant busy, nobody idle: without the unreserved pool the
    # aggregate admitted rate would collapse to the floor sum.
    floors = np.array([1e8, 1e8])
    busy = TokenBucketArray(floors, floors * 4, unreserved=2e8)
    busy.tokens[:] = 0.0
    granted = busy.refill(1.0, demand=np.array([1e9, 1e9]))
    assert (granted > 0).all()
    assert granted.sum() == pytest.approx(2e8)


def test_bucket_validation():
    with pytest.raises(ValueError):
        TokenBucketArray(np.array([-1.0]), np.array([1.0]))
    with pytest.raises(ValueError):
        TokenBucketArray(np.array([1.0]), np.array([np.inf]))
    with pytest.raises(ValueError):
        TokenBucketArray(np.array([1.0]), np.array([1.0]), unreserved=-1.0)


# -- controller ----------------------------------------------------------

def _config(floors, ceilings):
    return QosConfig(
        contracts=tuple(
            TenantContract(f"t{i}", floor=f, ceiling=c)
            for i, (f, c) in enumerate(zip(floors, ceilings))
        )
    )


def test_controller_throttles_aggressors_toward_floor():
    cfg = _config([1e8, 1e8], [1e9, 1e9])
    ctl = CongestionController(cfg, cfg.ceilings())
    hot = np.ones(8)  # every OST congested
    served = np.array([5e8, 0.9e8])  # t0 over floor, t1 under
    demand = np.array([9e8, 0.9e8])
    allow = ctl.update(0.05, hot, served, demand)
    assert allow[0] < 1e9, "aggressor must be throttled"
    assert allow[0] >= 1e8, "never below the floor"
    assert allow[1] == 1e9, "an in-contract tenant is left alone"
    assert ctl.congested_ticks == 1
    assert ctl.aggressor_ticks[0] == 1 and ctl.aggressor_ticks[1] == 0
    # Repeated congestion converges to the floor, never below.
    for _ in range(200):
        allow = ctl.update(0.05, hot, served, demand)
    assert allow[0] == pytest.approx(1e8)


def test_controller_recovers_additively_when_quiet():
    cfg = _config([1e8], [1e9])
    ctl = CongestionController(cfg, cfg.ceilings())
    hot, quiet = np.ones(4), np.zeros(4)
    ctl.update(0.05, hot, np.array([5e8]), np.array([9e8]))
    throttled = float(ctl.allow[0])
    ctl.update(0.05, quiet, np.array([5e8]), np.array([9e8]))
    recovered = float(ctl.allow[0])
    assert throttled < recovered <= 1e9
    for _ in range(10_000):
        ctl.update(0.05, quiet, np.array([5e8]), np.array([9e8]))
    assert float(ctl.allow[0]) == pytest.approx(1e9), (
        "additive increase must recover to the ceiling, not beyond"
    )


# -- admission and config plumbing ---------------------------------------

def _machine(n_osts=4, n_ranks=8, seed=0, faults=None):
    from repro.machines import jaguar

    return jaguar(n_osts=n_osts).build(
        n_ranks=n_ranks, seed=seed, faults=faults
    )


def _jobs(ranks=(4, 4), mb=8.0):
    from repro.apps import AppKernel, Variable
    from repro.core.transports import AdaptiveTransport
    from repro.units import MB

    return [
        TenantJob(
            f"t{i}",
            AdaptiveTransport(),
            AppKernel(f"t{i}", [Variable("x", shape=(int(mb * MB / 8),))]),
            r,
        )
        for i, r in enumerate(ranks)
    ]


def test_admission_refuses_oversubscribed_floors():
    m = _machine()
    pool_bw = m.n_osts * m.pool.config.drain_peak
    cfg = _config([pool_bw, pool_bw], [np.inf, np.inf])
    with pytest.raises(AdmissionError):
        run_tenants(m, _jobs(), qos=cfg)


def test_contract_count_must_match_jobs():
    m = _machine()
    cfg = _config([1e6], [np.inf])
    with pytest.raises(ConfigurationError):
        run_tenants(m, _jobs(), qos=cfg)


def test_environment_never_turns_the_baseline_into_a_qos_run(
    tmp_path, monkeypatch
):
    # Contracts reach a run only through ``run_tenants(qos=...)``: a
    # stray REPRO_QOS must not turn the raw max-min baseline into a
    # QoS run.
    path = tmp_path / "contracts.json"
    path.write_text(json.dumps({"contracts": [
        {"name": "t0", "floor": 1e6, "ceiling": 1e9},
        {"name": "t1", "floor": 1e6, "ceiling": 1e9},
    ]}))
    monkeypatch.setenv("REPRO_QOS", str(path))
    r = run_tenants(_machine(), _jobs())
    assert r.qos is None


def test_rank_faults_rejected_in_multitenant_runs():
    from repro.faults import FaultEvent, FaultPlan

    plan = FaultPlan(
        events=(FaultEvent(time=0.1, kind="crash_rank", target=0),)
    )
    m = _machine(faults=plan)
    with pytest.raises(ConfigurationError):
        run_tenants(m, _jobs())


# -- graceful degradation ------------------------------------------------

def test_over_contract_tenant_backpressured_never_errored():
    m = _machine(n_osts=4, n_ranks=12)
    pool_bw = m.n_osts * m.pool.config.drain_peak
    # Tenant 1 is hard-capped far below its demand rate: it must simply
    # finish late, with the denied bytes on the throttled ledger.
    cfg = _config(
        [0.3 * pool_bw, 0.01 * pool_bw],
        [np.inf, 0.05 * pool_bw],
    )
    r = run_tenants(m, _jobs(ranks=(4, 8), mb=16.0), qos=cfg)
    assert r.clean, "throttling must never surface as an error"
    assert all(o.error is None for o in r.outcomes)
    aggressor = r.outcomes[1]
    assert aggressor.throttled_bytes > 0
    assert aggressor.result.extra["qos_throttled_bytes"] > 0
    # Served covers the payload plus the transport's (tenant-tagged)
    # index writes — never less than the app's bytes, and close.
    assert aggressor.served_bytes >= aggressor.result.total_bytes
    assert aggressor.served_bytes == pytest.approx(
        aggressor.result.total_bytes, rel=0.01
    )
    assert r.qos["token_conservation_error"] < 1e-3
    # The capped tenant finishes after the reserved one.
    assert aggressor.completion_seconds > r.outcomes[0].completion_seconds


def test_jain_index_bounds():
    assert jain_index(np.array([1.0, 1.0, 1.0])) == pytest.approx(1.0)
    assert jain_index(np.array([1.0, 0.0, 0.0])) == pytest.approx(1 / 3)
    assert jain_index(np.zeros(0)) == 1.0


# -- parallel == serial --------------------------------------------------

def test_tenant_sweep_parallel_serial_bit_identical():
    from repro.harness.parallel import run_samples
    from repro.harness.figures.qos import _one_cell

    cell = partial(
        _one_cell,
        n_tenants=2,
        n_osts=8,
        cap=4,
        victim_ranks=4,
        victim_mb=24.0,
        aggressor_ranks=8,
        aggressor_mb=24.0,
        fault_check=True,
    )
    serial = run_samples(cell, 2, base_seed=3, jobs=1, label="qos-serial")
    fanned = run_samples(cell, 2, base_seed=3, jobs=2, label="qos-fanned")
    assert serial == fanned, (
        "tenant sweep must be bit-identical serial vs parallel"
    )
    for s in serial:
        assert s["qos_errored_tenants"] == 0
        assert s["qos_throttled_gb"] > 0
