"""Deterministic fault injection.

Failure is a first-class simulated phenomenon: a
:class:`~repro.faults.plan.FaultPlan` (pure data, JSON-serializable)
describes *what* goes wrong and when — OST fail-stop, hang, brownout,
rank crashes, message loss/delay, or a seeded stochastic MTBF/MTTR
model — and a :class:`~repro.faults.injector.FaultInjector` applies it
to one machine build.  Transports consult ``machine.faults`` to decide
whether to run their hardened (timeout/retry/failover) paths; with no
plan installed, behaviour is bit-identical to a fault-free build.

Plans reach machine builds two ways: explicitly
(``MachineSpec.build(..., faults=plan)``) for a run that builds its
own plan, or via the ``REPRO_FAULTS`` environment variable naming a
plan JSON file for a whole sweep (worker processes inherit it under
every start method).
"""

from __future__ import annotations

import os
from typing import Optional

from repro.faults.injector import FaultInjector
from repro.faults.plan import (
    CORRUPTION_KINDS,
    FAULT_KINDS,
    FaultEvent,
    FaultPlan,
    RetryPolicy,
)

__all__ = [
    "CORRUPTION_KINDS",
    "FAULT_KINDS",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "RetryPolicy",
    "resolve_fault_plan",
]


def resolve_fault_plan(
    explicit: Optional[FaultPlan] = None,
) -> Optional[FaultPlan]:
    """Resolution order: explicit arg > REPRO_FAULTS."""
    if explicit is not None:
        return explicit
    path = os.environ.get("REPRO_FAULTS")
    if path:
        return FaultPlan.from_json(path)
    return None
