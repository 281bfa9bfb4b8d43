"""Microbenchmarks of the simulator's hot paths.

Not a paper artifact — this guards the performance properties the
repo-scale experiments depend on: the max-min fair allocator must stay
O(rounds x flows) vectorized, and an end-to-end settle must stay
cheap at 16k concurrent flows.
"""

import numpy as np
import pytest

from repro.net.fabric import FlowNetwork, UniformSinkPool, max_min_fair_rates
from repro.sim import Environment


def _random_case(n_flows, n_src, n_dst, seed=0):
    rng = np.random.default_rng(seed)
    return (
        rng.integers(0, n_src, n_flows),
        rng.integers(0, n_dst, n_flows),
        rng.uniform(1e8, 2e9, n_src),
        rng.uniform(1e7, 5e8, n_dst),
        rng.uniform(1e6, 3e8, n_flows),
    )


def _bench_stats(benchmark):
    """JSON-safe summary of a pytest-benchmark run (best effort)."""
    try:
        s = benchmark.stats.stats
        return {"mean_s": s.mean, "min_s": s.min, "rounds": s.rounds}
    except Exception:  # pragma: no cover - plugin internals moved
        return None


@pytest.mark.benchmark(group="fabric-micro")
@pytest.mark.parametrize("n_flows", [1024, 16384])
def test_max_min_allocation_speed(benchmark, n_flows, save_result):
    src, dst, cs, cd, fcap = _random_case(n_flows, 1400, 672)
    rates = benchmark(max_min_fair_rates, src, dst, cs, cd, fcap)
    per_dst = np.bincount(dst, weights=rates, minlength=672)
    assert (per_dst <= cd * (1 + 1e-9)).all()
    stats = _bench_stats(benchmark)
    save_result(
        f"fabric_maxmin_{n_flows}",
        f"max-min allocation, {n_flows} flows: "
        + (f"{stats['mean_s'] * 1e3:.3f} ms mean" if stats else "n/a"),
        data={"n_flows": n_flows, "stats": stats},
    )


@pytest.mark.benchmark(group="fabric-micro")
def test_settle_speed_16k_flows(benchmark, save_result):
    """One flow-arrival settle with 16k concurrent flows.

    Repeated settles over an unchanged flow set exercise the
    skip-reallocation fast path, so this times the steady-state settle
    cost the simulation pays on every quiescent re-validation.
    """
    env = Environment()
    pool = UniformSinkPool(672, 1.8e8)
    net = FlowNetwork(env, np.full(1400, 1.6e9), pool, flow_cap=3e8)
    rng = np.random.default_rng(1)
    for _ in range(16384):
        net.start_flow(
            int(rng.integers(0, 1400)), int(rng.integers(0, 672)), 1e12
        )

    def one_settle():
        net.invalidate()

    benchmark(one_settle)
    assert net.active_flow_count == 16384
    stats = _bench_stats(benchmark)
    save_result(
        "fabric_settle_16k",
        "steady settle, 16k flows: "
        + (f"{stats['mean_s'] * 1e6:.1f} us mean" if stats else "n/a"),
        data={"n_flows": 16384, "stats": stats},
    )
