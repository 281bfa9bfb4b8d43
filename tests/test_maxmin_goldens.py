"""Golden outputs of the batch max-min allocator, bit for bit.

Each case draws a seeded flow set over a few sources and sinks and runs
:func:`repro.net.fabric._max_min_shares` (and its public wrapper
:func:`~repro.net.fabric.max_min_fair_rates`).  Most cases saturate a
source, so the allocation leaves the sink waterfill and runs the
filling rounds; the kinds cover:

* ``single_level`` -- one slow NIC gates every flow, so the first
  filling level freezes them all;
* ``multi_round`` -- slow NICs and sinks entangled across several
  levels;
* ``inf_sink`` / ``zero_sink`` -- sinks of infinite or zero capacity;
* ``flow_caps`` -- per-flow caps that bind below the fair level;
* ``inf_source`` -- NICs of infinite capacity next to slow ones;
* ``inf_tail`` -- after the slow NIC's flows freeze, the rest touch
  only infinite resources;
* ``sink_bound`` -- no source saturates: the waterfill is the answer
  and the canonical sink shares are returned too.

Per-resource counts are passed as int arrays, as float arrays, or
left for the allocator to derive, cycling with the seed.  The fixture
pins every rate and (when returned) every sink share as
``float.hex``, so a comparison is exact.  The fixture is
``goldens/maxmin_rates.json``; regenerate it (only when a change to the
allocation is intended and explained) and diff it against a revision
with ``python -m tests.golden``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.net import fabric
from tests.golden import hexnum, register

KINDS = ("single_level", "multi_round", "inf_sink", "zero_sink",
         "flow_caps", "inf_source", "inf_tail", "sink_bound")
SEEDS = range(5)
COUNTS = ("omitted", "int", "float")
CASES = tuple(f"{kind}/{seed}" for kind in KINDS for seed in SEEDS)


def _inputs(case_id: str) -> tuple:
    kind, seed = case_id.split("/")
    seed = int(seed)
    rng = np.random.default_rng([seed, KINDS.index(kind)])
    n_src = int(rng.integers(2, 6))
    n_dst = int(rng.integers(2, 8))
    n_flows = int(rng.integers(8, 40))
    src = rng.integers(0, n_src, n_flows)
    dst = rng.integers(0, n_dst, n_flows)
    cap_src = rng.uniform(1e8, 6e8, n_src)
    cap_dst = rng.uniform(1e8, 1e9, n_dst)
    fcap = np.full(n_flows, np.inf)
    if kind == "single_level":
        src[:] = 0
        cap_src[0] = rng.uniform(1e7, 5e7)
    elif kind == "inf_sink":
        cap_dst[rng.permutation(n_dst)[: max(1, n_dst // 2)]] = np.inf
    elif kind == "zero_sink":
        cap_dst[dst[0]] = 0.0
    elif kind == "flow_caps":
        fcap = rng.uniform(1e7, 2e8, n_flows)
    elif kind == "inf_source":
        cap_src[0] = np.inf
        fcap[rng.random(n_flows) < 0.3] = rng.uniform(5e7, 3e8)
    elif kind == "inf_tail":
        # Source 0 is slow; every other source and sink 0 are infinite,
        # and the flows off source 0 that land on sink 0 are uncapped.
        cap_src[1:] = np.inf
        cap_dst[0] = np.inf
        dst[src != 0] = 0
        fcap[rng.random(n_flows) < 0.3] = rng.uniform(1e7, 1e8)
    elif kind == "sink_bound":
        cap_src[:] = 1e12
        fcap = rng.uniform(5e7, 5e8, n_flows)
    mode = COUNTS[seed % len(COUNTS)]
    counts_src = counts_dst = None
    if mode != "omitted":
        dtype = np.int64 if mode == "int" else np.float64
        counts_src = np.bincount(src, minlength=n_src).astype(dtype)
        counts_dst = np.bincount(dst, minlength=n_dst).astype(dtype)
    return src, dst, cap_src, cap_dst, fcap, counts_src, counts_dst


def _hex(values: np.ndarray) -> list:
    return [hexnum(v) for v in values]


def _case(case_id: str) -> dict:
    src, dst, cap_src, cap_dst, fcap, counts_src, counts_dst = _inputs(case_id)
    rates, share_dst = fabric._max_min_shares(
        src, dst, cap_src, cap_dst, fcap,
        counts_src=counts_src, counts_dst=counts_dst,
    )
    return {
        "rates": _hex(rates),
        "shares": None if share_dst is None else _hex(share_dst),
    }


GOLDEN = register("maxmin_rates", CASES, _case, key="cases")


@pytest.mark.parametrize("case_id", CASES)
def test_maxmin_golden(case_id):
    GOLDEN.check(case_id, _case(case_id))


@pytest.mark.parametrize("case_id", CASES)
def test_scalar_cap_matches_per_flow_array(case_id):
    """One cap for every flow (the network's) allocates bit-identically
    to the same cap repeated per flow, in both rounds and at caps that
    bind, tie or never bind."""
    src, dst, cap_src, cap_dst, _, counts_src, counts_dst = _inputs(case_id)
    for cap in (np.inf, 5e7, 2e8):
        got = fabric._max_min_shares(
            src, dst, cap_src, cap_dst, cap,
            counts_src=counts_src, counts_dst=counts_dst,
        )
        want = fabric._max_min_shares(
            src, dst, cap_src, cap_dst, np.full(src.size, cap),
            counts_src=counts_src, counts_dst=counts_dst,
        )
        assert _hex(got[0]) == _hex(want[0])
        assert (got[1] is None) == (want[1] is None)
        if got[1] is not None:
            assert _hex(got[1]) == _hex(want[1])


@pytest.mark.parametrize("case_id", CASES)
def test_public_wrapper_returns_the_same_rates(case_id):
    src, dst, cap_src, cap_dst, fcap, counts_src, counts_dst = _inputs(case_id)
    rates = fabric.max_min_fair_rates(
        src, dst, cap_src, cap_dst, fcap,
        counts_src=counts_src, counts_dst=counts_dst,
    )
    assert _hex(rates) == GOLDEN.cells[case_id]["rates"]


@pytest.mark.parametrize("case_id", CASES)
def test_inputs_are_not_mutated(case_id):
    args = _inputs(case_id)
    before = [None if a is None else a.copy() for a in args]
    fabric._max_min_shares(*args[:5], counts_src=args[5], counts_dst=args[6])
    for a, b in zip(args, before):
        if a is not None:
            assert np.array_equal(a, b)


def test_fixture_covers_every_case_and_mostly_saturates():
    cases = GOLDEN.cells
    assert sorted(cases) == sorted(CASES)
    saturated = [c for c in CASES if cases[c]["shares"] is None]
    assert len(saturated) >= 30
    assert all(cases[f"sink_bound/{s}"]["shares"] is not None for s in SEEDS)

