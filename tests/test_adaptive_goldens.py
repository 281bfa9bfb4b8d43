"""Golden trajectories of the adaptive transport, in both modes.

The adaptive method runs as a batched cohort, or, when the machine
carries a fault plan, as the fault-hardened protocol.  Every cell here
runs one of them on the small Jaguar-like machine of
``tests/test_static_goldens.py`` and pins, float for float, what the
run produced: the same result document as the static goldens
(per-writer tuples, phases, files, index entries, extras, error
message and durable/lost/corrupt accounting, final ``env.now`` and
``events_scheduled``), plus the adaptive-write and coordinator
message counts and each output file's write and stored-block ledger.

The healthy ``cohort/*`` cells were generated while a per-rank
reference protocol (one process and one message per writer) still
existed, and regeneration then asserted that both agreed on everything
but the simulation cost; that protocol has since been deleted, and the
cells pin the cohort against the trajectories it was checked on.  One
traced healthy cell and one traced faulted cell pin whole Chrome
traces.

The fixture is ``goldens/adaptive_protocol.json``; regenerate it and
diff it against a revision with ``python -m tests.golden``.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest

from repro.core.transports import AdaptiveTransport
from repro.core.transports.history import HistoryAwareAdaptiveTransport
from repro.faults import FaultEvent, FaultPlan, two_ost_failure_plan
from repro.interference import install_production_noise
from repro.session import instrumented
from repro.trace import Tracer
from repro.trace.chrome import to_chrome
from tests.golden import num, register
from tests.test_static_goldens import N_OSTS, N_RANKS, SEED, app, run_doc, spec

#: Targets slowed to 5% so the coordinator has to steer.
SLOW_OSTS = (0, 1)

HEALTHY = {
    # config: (noise, slow OSTs, transport factory)
    "clean": (False, False, AdaptiveTransport),
    "interference": (True, False, AdaptiveTransport),
    "slow": (False, True, AdaptiveTransport),
    "wpt2": (False, True, lambda: AdaptiveTransport(writers_per_target=2)),
    "nosteer": (False, True, lambda: AdaptiveTransport(steering=False)),
    "history": (False, True, HistoryAwareAdaptiveTransport),
}
FAULTED = (
    "ost_fail", "ost_hang", "brownout", "msg_loss", "msg_delay",
    "crash_rank", "sc_crash", "bitflip_verify", "all_fail", "index_fail",
)


def _machine(*, faults=None, tracer=None, noise=False, slow=False):
    with instrumented(tracer=tracer):
        machine = spec().build(n_ranks=N_RANKS, seed=SEED, faults=faults)
    if noise:
        install_production_noise(machine, live=True)
    if slow:
        machine.pool.set_load_multiplier(0.05, osts=np.array(SLOW_OSTS))
    return machine


def _file_ledger(machine, res) -> dict:
    """Per output file: write records, bytes written, stored blocks."""
    ledger = {}
    for path in res.files:
        if not machine.fs.exists(path):
            ledger[path] = None
            continue
        f = machine.fs.lookup(path)
        blocks = f.stored_blocks()
        ledger[path] = [
            len(f.writes),
            num(f.bytes_written),
            len(blocks),
            sum(1 for b in blocks if b.corrupt or b.torn),
        ]
    return ledger


def _adaptive_doc(machine, transport, plan=None) -> dict:
    doc, res = run_doc(machine, transport, plan)
    doc["result"]["n_adaptive_writes"] = res.n_adaptive_writes
    doc["result"]["coordinator_messages"] = res.coordinator_messages
    doc["file_ledger"] = _file_ledger(machine, res)
    return doc


def _healthy_cell(config: str, tracer=None) -> dict:
    noise, slow, make = HEALTHY[config]
    transport = make()
    if config == "history":
        # The first step seeds the history; the pinned second step runs
        # on weighted quotas and vetoes slow steering targets.
        transport.run(_machine(slow=True), app(),
                      output_name="golden")
    return _adaptive_doc(
        _machine(tracer=tracer, noise=noise, slow=slow), transport
    )


@functools.lru_cache(maxsize=None)
def _healthy_write_phase() -> tuple:
    machine = _machine()
    res = AdaptiveTransport().run(machine, app(),
                                  output_name="golden")
    return res.open_time, res.write_time


@functools.lru_cache(maxsize=None)
def _hardened_last_landing() -> float:
    """When the last data write lands in a fault-free hardened run."""
    plan = FaultPlan().with_policy(run_timeout=120.0)
    res = AdaptiveTransport().run(_machine(faults=plan), app(),
                                  output_name="golden")
    return max(w.end for w in res.per_writer)


def _plan(scenario: str) -> FaultPlan:
    """Aim each fault inside the healthy write phase."""
    open_time, write_time = _healthy_write_phase()
    mid = open_time + 0.4 * write_time
    if scenario == "ost_fail":
        return two_ost_failure_plan(osts=(0, 1), at=mid, run_timeout=120.0)
    if scenario == "ost_hang":
        return FaultPlan(
            events=(FaultEvent(time=mid, kind="ost_hang", target=3),)
        ).with_policy(
            write_timeout=max(2.0 * write_time, 1e-2), max_retries=2,
            backoff_base=0.01, backoff_cap=0.05, run_timeout=120.0,
        )
    if scenario == "brownout":
        return FaultPlan(events=(
            FaultEvent(time=mid, kind="ost_brownout", target=1, factor=0.3),
        )).with_policy(run_timeout=120.0)
    if scenario == "msg_loss":
        return FaultPlan(events=(
            FaultEvent(time=open_time, kind="msg_loss", factor=0.05,
                       duration=0.5 * write_time),
        )).with_policy(heartbeat_interval=0.1, sc_timeout=0.5,
                       run_timeout=20.0)
    if scenario == "msg_delay":
        return FaultPlan(events=(
            FaultEvent(time=open_time, kind="msg_delay", factor=2e-3,
                       duration=0.5 * write_time),
        )).with_policy(run_timeout=120.0)
    if scenario == "crash_rank":
        # Rank 5 is a plain writer of group 1.
        return FaultPlan(
            events=(FaultEvent(time=mid, kind="crash_rank", target=5),)
        ).with_policy(run_timeout=120.0)
    if scenario == "sc_crash":
        # Rank 4 is group 1's sub-coordinator: the coordinator adopts.
        return FaultPlan(
            events=(FaultEvent(time=mid, kind="crash_rank", target=4),)
        ).with_policy(heartbeat_interval=0.1, sc_timeout=0.5,
                      run_timeout=120.0)
    if scenario == "bitflip_verify":
        return FaultPlan(
            events=(
                FaultEvent(time=mid, kind="block_bitflip", target=0,
                           factor=1.0),
                FaultEvent(time=mid, kind="block_bitflip", target=5,
                           factor=2.0),
            ),
            silent_error_rate=0.1,
        ).with_policy(read_back_verify=True, run_timeout=120.0)
    if scenario == "index_fail":
        # Group 0's target fail-stops after every data write landed and
        # before its sub-coordinator writes the file's index.
        return FaultPlan(events=(
            FaultEvent(time=_hardened_last_landing() + 1e-5,
                       kind="ost_fail", target=0),
        )).with_policy(run_timeout=120.0)
    assert scenario == "all_fail"
    # No healthy target left to relocate onto: stranded groups drain
    # until the run-timeout backstop ends the run with loss accounting.
    return FaultPlan(events=tuple(
        FaultEvent(time=mid, kind="ost_fail", target=o)
        for o in range(N_OSTS)
    )).with_policy(heartbeat_interval=0.5, run_timeout=5.0)


def _faulted_cell(scenario: str, tracer=None) -> dict:
    plan = _plan(scenario)
    return _adaptive_doc(
        _machine(faults=plan, tracer=tracer), AdaptiveTransport(), plan
    )


def _traced(run, *args) -> dict:
    tracer = Tracer()
    doc = run(*args, tracer=tracer)
    doc["trace"] = to_chrome(tracer.events)["traceEvents"]
    return doc


def _cell(cell_id: str) -> dict:
    mode, scenario = cell_id.split("/")
    if mode == "faulted":
        if scenario == "ost_fail_traced":
            return _traced(_faulted_cell, "ost_fail")
        return _faulted_cell(scenario)
    if scenario == "traced":
        return _traced(_healthy_cell, "slow")
    return _healthy_cell(scenario)


CELLS = (
    [f"cohort/{c}" for c in (*HEALTHY, "traced")]
    + [f"faulted/{s}" for s in FAULTED]
    + ["faulted/ost_fail_traced"]
)


GOLDEN = register("adaptive_protocol", sorted(CELLS), _cell)


@pytest.mark.parametrize("cell_id", CELLS)
def test_adaptive_golden(cell_id):
    GOLDEN.check(cell_id, _cell(cell_id), first="trace")


def test_fixture_covers_every_cell():
    assert sorted(GOLDEN.cells) == sorted(CELLS)
