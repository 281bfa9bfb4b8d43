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

Regenerate the fixture (only when a change to the simulated physics is
intended and explained) with::

    PYTHONPATH=src python tests/test_noise_goldens.py --regen
"""

from __future__ import annotations

import functools
import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.interference import install_production_noise
from repro.ior import IorConfig, run_ior
from repro.machines import jaguar
from repro.units import MB

FIXTURE = Path(__file__).parent / "goldens" / "noise_fields.json"

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
            instants.append([repr(float(now)), last[now]])
            before = last[now]
    return {"instants": instants, "final": _digest(pool)}


@functools.lru_cache(maxsize=None)
def _fixture() -> dict:
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("cell_id", CELLS)
def test_noise_golden(cell_id):
    assert _cell(cell_id) == _fixture()["cells"][cell_id]


def test_fixture_covers_every_cell():
    assert sorted(_fixture()["cells"]) == sorted(CELLS)


def _regen() -> None:
    FIXTURE.parent.mkdir(parents=True, exist_ok=True)
    lines = [
        f"{json.dumps(cell_id)}: {json.dumps(_cell(cell_id), sort_keys=True)}"
        for cell_id in sorted(CELLS)
    ]
    FIXTURE.write_text('{"cells": {\n' + ",\n".join(lines) + "\n}}\n")
    print(f"wrote {len(CELLS)} cells to {FIXTURE}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        sys.exit("usage: test_noise_goldens.py --regen")
    _regen()
