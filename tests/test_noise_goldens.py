"""Golden trajectories of the live production-noise field.

Each cell builds a 32-OST Jaguar, installs live production noise and
runs to t = 7200 s, once with no job and once with a small IOR job
writing at t = 0.  A ``fabric.on_settle`` hook snapshots the pool's
``load_mult`` and ``ingest_mult`` after every settle, keeping the last
snapshot of each simulated instant.  The fixture pins, for every
instant whose end-of-instant field differs from the previous one's,
the time and a digest of both vectors.

What is pinned is the field the simulation sees once an instant is
over, not how many pushes or settles produced it: batching the pushes
within an instant, or narrowing one to the OST that changed, leaves
the fixture unchanged.

The fixture is ``goldens/noise_fields.json``; regenerate it and diff it
against a revision with ``python -m tests.golden``.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.interference import install_production_noise
from repro.ior import IorConfig, run_ior
from repro.machines import jaguar
from repro.units import MB
from tests.golden import num, register

N_OSTS = 32
N_RANKS = 16
SEED = 5
UNTIL = 7200.0

CELLS = ("idle", "ior")


def _digest(pool) -> str:
    h = hashlib.sha256(pool.load_mult.tobytes())
    h.update(pool.ingest_mult.tobytes())
    return h.hexdigest()[:16]


def _cell(cell_id: str) -> dict:
    machine = jaguar(n_osts=N_OSTS).build(n_ranks=N_RANKS, seed=SEED)
    pool, fabric = machine.pool, machine.fs.fabric
    last = {}  # simulated instant -> field digest after its last settle
    prev = fabric.on_settle

    def hook(now):
        if prev is not None:
            prev(now)
        last[now] = _digest(pool)

    fabric.on_settle = hook
    install_production_noise(machine, live=True)
    if cell_id == "ior":
        run_ior(machine, IorConfig(n_writers=N_RANKS, block_size=64 * MB,
                                   n_osts_used=8))
    machine.env.run(until=UNTIL)
    instants = []
    before = None
    for now in sorted(last):
        if last[now] != before:
            instants.append([num(now), last[now]])
            before = last[now]
    return {"instants": instants, "final": _digest(pool)}


GOLDEN = register("noise_fields", sorted(CELLS), _cell)


@pytest.mark.parametrize("cell_id", CELLS)
def test_noise_golden(cell_id):
    GOLDEN.check(cell_id, _cell(cell_id))


def test_fixture_covers_every_cell():
    assert sorted(GOLDEN.cells) == sorted(CELLS)
