"""Golden trajectories of the four static transports.

Every cell runs one static IO method (POSIX file-per-process, the ADIOS
MPI-IO shared file, split files, stagger) on a small Jaguar-like
machine and pins what the run produced, float for float:

* per-writer ``(rank, start, end, nbytes, target_group)``;
* the phase times, the output files, the global index entries and
  the local index attached to each file, and ``result.extra``;
* for faulted cells, the raised :class:`~repro.errors.TransportError`
  (message and durable/lost/corrupt byte accounting) and its partial
  result;
* the final simulated time and the number of calendar events
  scheduled, so a change in the event structure shows even when the
  results happen to agree;
* for one traced healthy cell per method, the whole Chrome trace.

The fixture is ``goldens/static_transports.json``; regenerate it and
diff it against a revision with ``python -m tests.golden``.
"""

from __future__ import annotations

import functools

import pytest

from repro.apps import AppKernel, Variable
from repro.core.transports import (
    MpiIoTransport,
    PosixTransport,
    SplitFilesTransport,
    StaggerTransport,
)
from repro.errors import TransportError
from repro.faults import FaultEvent, FaultPlan
from repro.interference import install_production_noise
from repro.machines import jaguar
from repro.session import instrumented
from repro.trace import Tracer
from repro.trace.chrome import to_chrome
from repro.units import MB
from tests.faultplans import two_ost_failure_plan
from tests.golden import num, register

N_RANKS = 64
N_OSTS = 16
CAP = 4
MB_PER_PROC = 16.0
SEED = 2

def _posix_indexed():
    """POSIX over 12 targets with a global index, flushed file after
    file (the flushed Section IV variant)."""
    t = PosixTransport(n_osts_used=12, build_index=True)
    t.flush_order = "inline"
    return t


PRESETS = {
    "mpiio": MpiIoTransport,
    "posix": PosixTransport,
    "posix_indexed": _posix_indexed,
    "splitfiles": SplitFilesTransport,
    "stagger": StaggerTransport,
}
FAULTED_PRESETS = ("mpiio", "posix", "posix_indexed", "splitfiles")
SCENARIOS = ("ost_fail", "ost_hang", "crash_rank", "block_bitflip")
#: Further faulted cells: stagger (in-order lanes, concurrent flush)
#: under a fail-stop and a crash, and the run-timeout backstop for an
#: inline-flush and a concurrent-flush method.
EXTRA_FAULTED = ("stagger/ost_fail", "stagger/crash_rank",
                 "mpiio/run_timeout", "stagger/run_timeout")


def spec():
    return jaguar(n_osts=N_OSTS).with_overrides(max_stripe_count=CAP)


def app():
    return AppKernel(
        "golden", [Variable("v", shape=(int(MB_PER_PROC * MB / 8),))]
    )


def result_doc(machine, res) -> dict:
    index = None
    if res.index is not None:
        index = {
            "files": res.index.files,
            "entries": [
                [path, e.var, e.writer, num(e.offset), num(e.nbytes),
                 e.checksum]
                for var in res.index.variables
                for path, e in res.index.lookup(var)
            ],
        }
    local = {}
    for path in res.files:
        if not machine.fs.exists(path):  # a run cut before the create
            local[path] = "missing"
            continue
        payload = machine.fs.lookup(path).payloads.get(("local_index", path))
        local[path] = None if payload is None else len(payload[1])
    return {
        "transport": res.transport,
        "n_writers": res.n_writers,
        "total_bytes": num(res.total_bytes),
        "phases": [num(res.open_time), num(res.write_time),
                   num(res.flush_time), num(res.close_time)],
        "per_writer": [
            [w.rank, num(w.start), num(w.end), num(w.nbytes), w.target_group]
            for w in res.per_writer
        ],
        "files": list(res.files),
        "index": index,
        "local_index_entries": local,
        "extra": {k: num(v) for k, v in sorted(res.extra.items())},
        "messages_sent": res.messages_sent,
    }


def _run(preset: str, *, faults=None, noise=False, tracer=None) -> dict:
    with instrumented(tracer=tracer):
        machine = spec().build(n_ranks=N_RANKS, seed=SEED, faults=faults)
    if noise:
        install_production_noise(machine, live=True)
    return run_doc(machine, PRESETS[preset](), faults)[0]


def run_doc(machine, transport, faults) -> tuple:
    """Run ``transport`` on ``machine``; return ``(doc, result)``.

    A raised :class:`TransportError` is pinned under ``"error"`` and its
    partial result stands in for the result.
    """
    doc = {}
    try:
        res = transport.run(machine, app(), output_name="golden")
    except TransportError as exc:
        doc["error"] = {
            "message": str(exc),
            "bytes_durable": num(exc.bytes_durable),
            "bytes_lost": num(exc.bytes_lost),
            "bytes_corrupt": num(exc.bytes_corrupt),
        }
        res = exc.partial
    doc["result"] = result_doc(machine, res)
    doc["env_now"] = num(machine.env.now)
    doc["events_scheduled"] = machine.env.events_scheduled
    if faults is not None:
        doc["plan"] = faults.to_dict()
    return doc, res


@functools.lru_cache(maxsize=None)
def _healthy(preset: str):
    machine = spec().build(n_ranks=N_RANKS, seed=SEED)
    return PRESETS[preset]().run(machine, app(), output_name="golden")


def _plan(preset: str, scenario: str) -> FaultPlan:
    """Aim each fault inside the preset's own healthy write phase."""
    base = _healthy(preset)
    mid = base.open_time + 0.4 * base.write_time
    if scenario == "ost_fail":
        return two_ost_failure_plan(osts=(0, 1), at=mid, run_timeout=120.0)
    if scenario == "ost_hang":
        return FaultPlan(
            events=(FaultEvent(time=mid, kind="ost_hang", target=3),)
        ).with_policy(
            write_timeout=max(2.0 * base.write_time, 1e-2),
            run_timeout=120.0,
        )
    if scenario == "crash_rank":
        return FaultPlan(
            events=(FaultEvent(time=mid, kind="crash_rank", target=5),)
        ).with_policy(run_timeout=120.0)
    if scenario == "run_timeout":
        # A hung target and a write timeout longer than the run timeout:
        # only the backstop ends the write phase.
        return FaultPlan(
            events=(FaultEvent(time=mid, kind="ost_hang", target=3),)
        ).with_policy(write_timeout=60.0, run_timeout=2.0,
                      flush_timeout=1.0)
    assert scenario == "block_bitflip"
    # Static writers register their blocks as each write completes, so
    # the rot lands just after the write phase.
    at = (base.open_time + base.write_time
          + max(0.25 * base.flush_time, 1e-3))
    return FaultPlan(
        events=(
            FaultEvent(time=at, kind="block_bitflip", target=0, factor=1.0),
            FaultEvent(time=at, kind="block_bitflip", target=5, factor=2.0),
        )
    ).with_policy(run_timeout=120.0)


def _cell(cell_id: str) -> dict:
    preset, scenario = cell_id.split("/")
    if scenario == "healthy":
        return _run(preset)
    if scenario == "interference":
        return _run(preset, noise=True)
    if scenario == "traced":
        tracer = Tracer()
        doc = _run(preset, tracer=tracer)
        doc["trace"] = to_chrome(tracer.events)["traceEvents"]
        return doc
    return _run(preset, faults=_plan(preset, scenario))


CELLS = (
    [f"{p}/{s}" for p in PRESETS for s in ("healthy", "interference",
                                             "traced")]
    + [f"{p}/{s}" for p in FAULTED_PRESETS for s in SCENARIOS]
    + list(EXTRA_FAULTED)
)


GOLDEN = register("static_transports", sorted(CELLS), _cell)


@pytest.mark.parametrize("cell_id", CELLS)
def test_static_golden(cell_id):
    GOLDEN.check(cell_id, _cell(cell_id), first="trace")


def test_fixture_covers_every_cell():
    assert sorted(GOLDEN.cells) == sorted(CELLS)
