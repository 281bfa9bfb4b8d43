"""Simulated MPI: ranks and tagged point-to-point messaging.

The adaptive-IO protocol (Algorithms 1-3 of the paper) is a
message-driven distributed algorithm; this package provides just
enough of MPI's semantics to implement it verbatim: ranks hosted as
simulation processes and ``send``/``recv`` with tag matching
(including a wildcard).  Message timing uses the alpha-beta
latency model; bulk data still travels on the fluid fabric — control
and data planes are separate, as on a real machine.
"""

from repro.mpi.comm import ANY_TAG, Message, SimComm

__all__ = ["ANY_TAG", "Message", "SimComm"]
