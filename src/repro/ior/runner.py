"""Executes an IOR configuration against a machine.

The runner is a thin adapter: an IOR block is a one-variable app
kernel, and the POSIX/MPI-IO access patterns are exactly the
corresponding transports.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.apps.base import AppKernel, Variable
from repro.core.transports.base import OutputResult
from repro.core.transports.static import MpiIoTransport, PosixTransport
from repro.ior.config import IorConfig

if TYPE_CHECKING:  # pragma: no cover
    from repro.machines.base import Machine

__all__ = ["run_ior", "ior_app"]


def ior_app(block_size: float) -> AppKernel:
    """The degenerate app kernel IOR writes: one opaque block."""
    n_doubles = max(1, int(block_size / 8))
    return AppKernel(
        "ior",
        [Variable("data", shape=(n_doubles,), dtype="f8",
                  value_range=(0.0, 1.0))],
    )


def run_ior(
    machine: "Machine",
    config: IorConfig,
    output_name: str = "ior",
) -> OutputResult:
    """Run one IOR test; returns the transport's OutputResult.

    The machine must have been built with ``n_ranks ==
    config.n_writers``.
    """
    if machine.n_ranks != config.n_writers:
        raise ValueError(
            f"machine has {machine.n_ranks} ranks but the IOR config "
            f"wants {config.n_writers} writers"
        )
    app = ior_app(config.block_size)
    if config.api == "posix":
        transport = PosixTransport(n_osts_used=config.n_osts_used)
    else:
        transport = MpiIoTransport(
            stripe_count=config.n_osts_used, build_index=False
        )
    return transport.run(machine, app, output_name=output_name)
