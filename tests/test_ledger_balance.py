"""The block ledger balances against what every transport reports.

For each transport preset, a healthy 64-rank output on a 16-OST
Jaguar-like machine must leave exactly one stored block per (rank,
variable) in its data files, none damaged, whose sizes sum to
``result.total_bytes``; where the transport builds a global index, the
index must count the same blocks and bytes.
"""

from __future__ import annotations

import pytest

from repro.apps import AppKernel, Variable
from repro.core.transports import (
    AdaptiveTransport,
    MpiIoTransport,
    PosixTransport,
    SplitFilesTransport,
    StaggerTransport,
)
from repro.machines import jaguar
from repro.units import MB

N_RANKS = 64
N_OSTS = 16

def _posix_indexed():
    """POSIX over 12 targets with a global index, flushed file after
    file (the flushed Section IV variant)."""
    t = PosixTransport(n_osts_used=12, build_index=True)
    t.flush_order = "inline"
    return t


PRESETS = {
    "adaptive_batched": AdaptiveTransport,
    "mpiio": MpiIoTransport,
    "posix": PosixTransport,
    "posix_indexed": _posix_indexed,
    "splitfiles": SplitFilesTransport,
    "stagger": StaggerTransport,
}


def _app() -> AppKernel:
    # Three variables of unequal size, so a block-count or offset slip
    # cannot hide behind a uniform layout.
    return AppKernel("ledger", [
        Variable("a", shape=(int(4 * MB / 8),)),
        Variable("b", shape=(int(1 * MB / 8),)),
        Variable("c", shape=(int(0.5 * MB / 8),), dtype="f4"),
    ])


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_block_ledger_balances(preset):
    app = _app()
    machine = jaguar(n_osts=N_OSTS).build(n_ranks=N_RANKS, seed=3)
    result = PRESETS[preset]().run(machine, app, output_name="ledger")
    n_blocks = N_RANKS * len(app.variables)
    assert result.total_bytes == app.total_bytes(N_RANKS)

    blocks = [blk for path in result.files
              for blk in machine.fs.lookup(path).stored_blocks()]
    assert len(blocks) == n_blocks
    assert sum(blk.nbytes for blk in blocks) == result.total_bytes
    assert not [blk for blk in blocks if blk.corrupt or blk.torn]
    assert sorted((blk.writer, blk.nbytes) for blk in blocks) == sorted(
        (rank, v.nbytes) for rank in range(N_RANKS) for v in app.variables
    )

    if result.index is not None:
        assert result.index.n_blocks == n_blocks
        assert result.index.total_bytes() == result.total_bytes
