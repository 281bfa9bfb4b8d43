"""Microbenchmark of the simulation kernel's hot paths.

Not a paper artifact — this tracks the raw throughput numbers every
sweep is built on, so performance regressions show up as numbers, not
as mysteriously slow benchmark sessions:

* **events/sec** — the DES calendar loop: many processes yielding
  timeouts (one calendar event per hop, exercising the Timeout
  allocation path, ``Environment.run`` and the heap).
* **settles/sec (steady)** — fabric settles with an unchanged flow
  set and unchanged capacities (the "timer fired, nothing moved"
  case the fabric can skip reallocation for).
* **settles/sec (churn)** — fabric settles where the flow set changes
  every time (start + cancel, each forced synchronous), the case the
  incremental reallocator exists for: only the touched sink's flows
  are repriced, bit-identically to a batch reallocation.
* **allocs/sec (single-bottleneck)** — ``max_min_fair_rates`` on the
  by-far-most-common shape: every flow blocked by one shared sink
  capacity level (the fast path).
* **flow arrivals/sec (grouped)** — batches of flows released at one
  simulated instant through a live calendar: same-instant coalescing
  folds each batch into a single end-of-instant settle, so the cost
  per arrival is bookkeeping, not a reallocation.

Results land in ``benchmarks/results/BENCH_kernel.json``; the
previously committed numbers are carried along under ``"previous"``
so the file itself records the perf trajectory.  CI's perf-smoke job
fails when events/sec drops more than 30% below the committed value.
"""

import json
import time

import numpy as np
import pytest

from repro.net.fabric import FlowNetwork, UniformSinkPool, max_min_fair_rates
from repro.sim import Environment

_SCALES = {
    # (ticker procs, hops each, fabric flows, settles, alloc reps,
    #  grouped-release arrivals)
    "smoke": dict(n_procs=50, n_hops=200, n_flows=512, n_settles=60,
                  n_allocs=100, n_group_flows=1280),
    "small": dict(n_procs=200, n_hops=500, n_flows=2048, n_settles=200,
                  n_allocs=300, n_group_flows=6400),
    "paper": dict(n_procs=400, n_hops=1000, n_flows=16384, n_settles=400,
                  n_allocs=1000, n_group_flows=12800),
}


def _ticker(env, n):
    for _ in range(n):
        yield env.timeout(0.001)


def bench_events(n_procs, n_hops):
    """Calendar throughput: events processed per wall-clock second."""
    env = Environment()
    for i in range(n_procs):
        env.process(_ticker(env, n_hops), name=f"t{i}")
    t0 = time.perf_counter()
    env.run()
    dt = time.perf_counter() - t0
    n_events = env._seq  # every scheduled event bumps the sequence
    return n_events / dt, n_events, dt


def _fresh_network(n_flows, n_src=256, n_sinks=64):
    env = Environment()
    pool = UniformSinkPool(n_sinks, 1.8e8)
    net = FlowNetwork(env, np.full(n_src, 1.6e9), pool, flow_cap=3e8)
    rng = np.random.default_rng(7)
    for _ in range(n_flows):
        net.start_flow(
            int(rng.integers(0, n_src)), int(rng.integers(0, n_sinks)),
            1e15,
        )
    net.invalidate()  # fold the deferred settle; start from a live state
    return env, net


def bench_settles_steady(n_flows, n_settles):
    """Settles with an unchanged flow set and unchanged capacities."""
    _env, net = _fresh_network(n_flows)
    t0 = time.perf_counter()
    for _ in range(n_settles):
        net.invalidate()
    dt = time.perf_counter() - t0
    return n_settles / dt, dt


def bench_settles_churn(n_flows, n_settles):
    """Settles forced through reallocation by flow-set churn.

    ``invalidate()`` after every mutation makes each settle synchronous
    (mutations alone only *request* a deferred settle), so this measures
    one reallocation per op — served by the incremental patch path when
    eligible, the batch allocator otherwise.
    """
    _env, net = _fresh_network(n_flows)
    t0 = time.perf_counter()
    for i in range(n_settles):
        net.start_flow(i % net.n_sources, i % net.n_sinks, 1e15)
        net.invalidate()
        net.cancel_flow(net._next_id - 1)  # the flow just started
        net.invalidate()
    dt = time.perf_counter() - t0
    # Each iteration settles twice (start + cancel).
    return 2 * n_settles / dt, dt, net.incremental_count


def bench_group_release(n_arrivals, group_size=64):
    """Same-instant group releases through a live calendar.

    A process starts *group_size* flows at one simulated instant, then
    yields; the fabric coalesces each burst into a single end-of-instant
    settle.  Measures flow arrivals per wall-clock second — the number
    that bounds how fast a sweep can spin up thousands of writers.
    """
    env = Environment()
    pool = UniformSinkPool(64, 1.8e8)
    net = FlowNetwork(env, np.full(256, 1.6e9), pool, flow_cap=3e8)
    n_groups = n_arrivals // group_size

    def _releaser():
        i = 0
        for _ in range(n_groups):
            for _ in range(group_size):
                # Small flows: they complete between bursts, so the
                # network stays at one burst's worth of active flows.
                net.start_flow(i % 256, i % 64, 1e6)
                i += 1
            yield env.timeout(0.01)

    env.process(_releaser(), name="release")
    t0 = time.perf_counter()
    env.run()
    dt = time.perf_counter() - t0
    n_flows = n_groups * group_size
    return n_flows / dt, dt, net.realloc_count, net.coalesced_count


def bench_alloc_single_bottleneck(n_reps, n_flows=4096):
    """max_min_fair_rates where one shared sink level binds all flows."""
    rng = np.random.default_rng(3)
    src = rng.integers(0, 1400, n_flows)
    dst = np.zeros(n_flows, dtype=np.int64)  # everyone on one sink
    cap_src = np.full(1400, 1.6e9)
    cap_dst = np.array([1.8e8])
    t0 = time.perf_counter()
    for _ in range(n_reps):
        rates = max_min_fair_rates(src, dst, cap_src, cap_dst)
    dt = time.perf_counter() - t0
    assert np.allclose(rates.sum(), 1.8e8)
    return n_reps / dt, dt


def _collected(fn, *args):
    """Run one sub-benchmark with a clean slate: the previous section's
    garbage (dead Events, retired networks) must not be collected on
    this section's clock."""
    import gc

    gc.collect()
    return fn(*args)


def _measure(cfg):
    return (
        _collected(bench_events, cfg["n_procs"], cfg["n_hops"]),
        _collected(bench_settles_steady, cfg["n_flows"], cfg["n_settles"]),
        _collected(bench_settles_churn, cfg["n_flows"], cfg["n_settles"]),
        _collected(bench_alloc_single_bottleneck, cfg["n_allocs"]),
        _collected(bench_group_release, cfg["n_group_flows"]),
    )


@pytest.mark.benchmark(group="kernel-micro")
def test_kernel_microbench(benchmark, scale, save_result):
    cfg = _SCALES[scale.value]
    # Route through the benchmark fixture so --benchmark-only runs
    # this test; each sub-measurement keeps its own wall-clock timing.
    (
        (ev_rate, n_events, ev_dt),
        (steady_rate, steady_dt),
        (churn_rate, churn_dt, churn_incremental),
        (alloc_rate, alloc_dt),
        (group_rate, group_dt, group_reallocs, group_coalesced),
    ) = benchmark.pedantic(_measure, args=(cfg,), rounds=1, iterations=1)

    data = {
        "scale": scale.value,
        "events_per_sec": ev_rate,
        "n_events": int(n_events),
        "settles_per_sec_steady": steady_rate,
        "settles_per_sec_churn": churn_rate,
        "churn_incremental_reallocs": int(churn_incremental),
        "allocs_per_sec_single_bottleneck": alloc_rate,
        "flow_arrivals_per_sec_grouped": group_rate,
        "grouped_reallocs": int(group_reallocs),
        "grouped_coalesced": int(group_coalesced),
        "wall": {
            "events": ev_dt,
            "settles_steady": steady_dt,
            "settles_churn": churn_dt,
            "alloc": alloc_dt,
            "group_release": group_dt,
        },
    }
    # Carry the previously committed numbers along so the JSON records
    # the trajectory, not just the latest point.
    prev_path = (
        __import__("pathlib").Path(__file__).parent
        / "results" / "BENCH_kernel.json"
    )
    if prev_path.exists():
        prev = json.loads(prev_path.read_text()).get("data") or {}
        prev.pop("previous", None)
        data["previous"] = prev

    text = (
        "Kernel microbenchmark\n"
        f"  events/sec            {ev_rate:12.0f}  "
        f"({n_events} events in {ev_dt:.2f}s)\n"
        f"  settles/sec (steady)  {steady_rate:12.0f}\n"
        f"  settles/sec (churn)   {churn_rate:12.0f}  "
        f"({churn_incremental} incremental)\n"
        f"  allocs/sec (1-btlnk)  {alloc_rate:12.0f}\n"
        f"  arrivals/sec (group)  {group_rate:12.0f}  "
        f"({group_reallocs} reallocs, {group_coalesced} coalesced)"
    )
    save_result("kernel", text, data=data)

    # Generous sanity floors — CI's perf-smoke job does the real
    # regression check against the committed JSON.
    assert ev_rate > 10_000
    assert steady_rate > 50
    assert churn_rate > 50
    assert group_rate > 100
    # Coalescing must actually engage: far fewer reallocations than
    # arrivals.
    assert group_reallocs < cfg["n_group_flows"] / 8
