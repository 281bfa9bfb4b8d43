"""Fault plans the tests build often."""

from typing import Sequence

from repro.faults import FaultEvent, FaultPlan, RetryPolicy


def two_ost_failure_plan(
    osts: Sequence[int] = (0, 1), at: float = 0.5, **policy
) -> FaultPlan:
    """Fail-stop *osts* at *at* seconds, with *policy* overrides."""
    return FaultPlan(
        events=tuple(
            FaultEvent(time=at, kind="ost_fail", target=int(o)) for o in osts
        ),
        policy=RetryPolicy(**policy),
    )
