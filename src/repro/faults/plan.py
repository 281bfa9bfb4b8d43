"""Declarative, seeded fault plans.

A :class:`FaultPlan` is data, not behaviour: a timeline of
:class:`FaultEvent` records (plus an optional stochastic failure model)
and the :class:`RetryPolicy` constants the fault-tolerant transports
use.  Plans are JSON-serializable so experiments can be driven with
``--faults plan.json`` / ``REPRO_FAULTS`` and replayed bit-identically:
the stochastic model draws from a named :mod:`repro.sim.rng` stream, so
the same seed always yields the same timeline.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace
from typing import Optional, Sequence, Tuple

from repro.errors import FaultPlanError

__all__ = [
    "FAULT_KINDS",
    "CORRUPTION_KINDS",
    "FaultEvent",
    "RetryPolicy",
    "FaultPlan",
    "two_ost_failure_plan",
]

#: Recognized fault kinds and what ``target`` means for each.
FAULT_KINDS = (
    "ost_fail",  # target = OST index: fail-stop, cached bytes lost
    "ost_hang",  # target = OST index: accepted-but-never-completed
    "ost_brownout",  # target = OST index, factor = drain scaling
    "ost_recover",  # target = OST index: back to UP
    "crash_rank",  # target = rank: kill its processes (writer or SC)
    "msg_loss",  # factor = drop probability for control messages
    "msg_delay",  # factor = extra latency (seconds) per message
    "block_bitflip",  # target = OST index, factor = blocks to rot
    "torn_write",  # target = OST index, factor = fraction of tail lost
    "stale_index",  # target = OST index, factor = blocks to orphan
)

_OST_KINDS = ("ost_fail", "ost_hang", "ost_brownout", "ost_recover")

#: Silent-corruption kinds: they mutate stored blocks in place (no
#: state-machine transition, nothing reverts).  ``block_bitflip`` rots
#: the stored copy of recent blocks so their read-back checksum no
#: longer matches the index; ``torn_write`` truncates a block to a
#: prefix; ``stale_index`` drops a stored block while its index entry
#: survives (the index points at data that never made it).
CORRUPTION_KINDS = ("block_bitflip", "torn_write", "stale_index")
_CORRUPTION_KINDS = CORRUPTION_KINDS


@dataclass(frozen=True)
class FaultEvent:
    """One point on the fault timeline.

    ``duration`` (where meaningful) schedules the matching recovery
    automatically: an ``ost_hang``/``ost_brownout``/``msg_*`` with a
    duration reverts after the window.  ``ost_fail`` is permanent
    unless an explicit ``ost_recover`` follows — a fail-stopped target
    comes back empty, which the storage layer models, but the paper's
    write-once workloads never re-use it within a run.
    """

    time: float
    kind: str
    target: int = -1
    factor: float = 1.0
    duration: Optional[float] = None

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise FaultPlanError(
                f"unknown fault kind {self.kind!r}; expected one of "
                f"{FAULT_KINDS}"
            )
        # Written as `not x >= 0` / `not x > 0` so NaN fails too.
        if not self.time >= 0:
            raise FaultPlanError(f"fault time must be >= 0, got {self.time}")
        if self.duration is not None and not self.duration > 0:
            raise FaultPlanError("fault duration must be positive")
        if self.kind == "ost_brownout" and not 0.0 < self.factor <= 1.0:
            raise FaultPlanError(
                f"brownout factor must be in (0, 1], got {self.factor}"
            )
        if self.kind == "msg_loss" and not 0.0 <= self.factor < 1.0:
            raise FaultPlanError(
                f"msg_loss probability must be in [0, 1), got {self.factor}"
            )
        if self.kind == "msg_delay" and not self.factor >= 0:
            raise FaultPlanError("msg_delay extra latency must be >= 0")
        if self.kind in _CORRUPTION_KINDS and self.duration is not None:
            raise FaultPlanError(
                f"{self.kind} takes no duration: corruption does not revert"
            )
        if (self.kind in ("block_bitflip", "stale_index")
                and not self.factor >= 1):
            raise FaultPlanError(
                f"{self.kind} factor is a block count, must be >= 1, got "
                f"{self.factor}"
            )
        if self.kind == "torn_write" and not 0.0 < self.factor <= 1.0:
            raise FaultPlanError(
                f"torn_write factor is the fraction of the block's tail "
                f"lost, must be in (0, 1], got {self.factor}"
            )


@dataclass(frozen=True)
class RetryPolicy:
    """Constants of the fault-tolerant write path.

    ``write_timeout`` is the per-attempt deadline a writer arms around
    each write (the hung-target detector); retries back off
    exponentially from ``backoff_base`` capped at ``backoff_cap``.
    ``heartbeat_interval``/``sc_timeout`` drive sub-coordinator death
    detection at the coordinator; ``run_timeout`` is the whole-output
    backstop after which survivors are reaped and the run accounted;
    ``flush_timeout`` bounds the durability wait per file.

    ``read_back_verify`` arms the adaptive transport's
    write–verify–rewrite loop: after each write the writer checks the
    stored blocks against its own checksums and treats a mismatch like
    a failed attempt (same retry/backoff budget, same poisoning and
    relocation once the budget is exhausted).  Off by default so
    checksum-free runs reproduce the PR 3 fault behaviour exactly.
    """

    write_timeout: float = 15.0
    max_retries: int = 3
    backoff_base: float = 0.25
    backoff_cap: float = 4.0
    heartbeat_interval: float = 2.0
    sc_timeout: float = 20.0
    run_timeout: float = 900.0
    flush_timeout: float = 300.0
    read_back_verify: bool = False

    def __post_init__(self):
        # Written as `not x > 0` / `not x >= 0` so NaN fails too.
        if not self.write_timeout > 0:
            raise FaultPlanError("write_timeout must be positive")
        if not self.max_retries >= 0:
            raise FaultPlanError("max_retries must be >= 0")
        if not (self.backoff_base >= 0
                and self.backoff_cap >= self.backoff_base):
            raise FaultPlanError(
                "need 0 <= backoff_base <= backoff_cap"
            )
        if not (self.heartbeat_interval > 0 and self.sc_timeout > 0):
            raise FaultPlanError("heartbeat constants must be positive")
        if not (self.run_timeout > 0 and self.flush_timeout > 0):
            raise FaultPlanError("run/flush timeouts must be positive")

    def backoff(self, attempt: int) -> float:
        """Backoff delay before retry number ``attempt`` (1-based)."""
        return min(
            self.backoff_base * (2.0 ** max(attempt - 1, 0)),
            self.backoff_cap,
        )


@dataclass(frozen=True)
class FaultPlan:
    """A timeline of faults plus the retry policy, as pure data.

    ``mtbf`` switches on the stochastic model: inter-failure gaps are
    exponential with that mean, targets drawn uniformly over the pool,
    up to ``max_stochastic`` events of kind ``stochastic_kind``.
    ``mttr`` (optional) schedules an exponential-mean recovery after
    each stochastic fault.  Draws come from the run's ``"faults"``
    RNG stream at :meth:`materialize` time — deterministic per seed.

    ``silent_error_rate`` is the per-block probability that a freshly
    written block silently rots in place (undetectable at write time;
    seeded from the ``"faults.corrupt"`` stream).  It models media bit
    rot / firmware bugs underneath *every* write, independent of the
    declarative timeline.
    """

    events: Tuple[FaultEvent, ...] = ()
    policy: RetryPolicy = field(default_factory=RetryPolicy)
    mtbf: Optional[float] = None
    mttr: Optional[float] = None
    stochastic_kind: str = "ost_fail"
    max_stochastic: int = 0
    silent_error_rate: float = 0.0

    def __post_init__(self):
        if self.mtbf is not None and not self.mtbf > 0:
            raise FaultPlanError("mtbf must be positive")
        if self.mttr is not None and not self.mttr > 0:
            raise FaultPlanError("mttr must be positive")
        if not 0.0 <= self.silent_error_rate < 1.0:
            raise FaultPlanError(
                f"silent_error_rate must be in [0, 1), got "
                f"{self.silent_error_rate}"
            )
        if self.stochastic_kind not in _OST_KINDS[:3]:
            raise FaultPlanError(
                f"stochastic_kind must be an injectable OST fault, got "
                f"{self.stochastic_kind!r}"
            )
        if self.max_stochastic < 0:
            raise FaultPlanError("max_stochastic must be >= 0")
        if self.mtbf is not None and self.max_stochastic == 0:
            raise FaultPlanError(
                "stochastic model needs max_stochastic >= 1"
            )
        # Normalize: events sorted by time (stable on input order).
        object.__setattr__(
            self, "events", tuple(sorted(self.events, key=lambda e: e.time))
        )

    # -- (de)serialization ------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "events": [asdict(e) for e in self.events],
            "policy": asdict(self.policy),
            "mtbf": self.mtbf,
            "mttr": self.mttr,
            "stochastic_kind": self.stochastic_kind,
            "max_stochastic": self.max_stochastic,
            "silent_error_rate": self.silent_error_rate,
        }

    @staticmethod
    def from_dict(d: dict) -> "FaultPlan":
        if not isinstance(d, dict):
            raise FaultPlanError(f"fault plan must be an object, got {d!r}")
        unknown = set(d) - {
            "events", "policy", "mtbf", "mttr", "stochastic_kind",
            "max_stochastic", "silent_error_rate",
        }
        if unknown:
            raise FaultPlanError(f"unknown fault-plan keys {sorted(unknown)}")
        events = []
        for i, e in enumerate(d.get("events", ())):
            if not isinstance(e, dict):
                raise FaultPlanError(
                    f"events[{i}] must be an object, got {e!r}"
                )
            kind = e.get("kind")
            if kind not in FAULT_KINDS:
                raise FaultPlanError(
                    f"events[{i}]: unknown fault kind {kind!r}; expected "
                    f"one of {FAULT_KINDS}"
                )
            bad_keys = set(e) - {"time", "kind", "target", "factor",
                                 "duration"}
            if bad_keys:
                raise FaultPlanError(
                    f"events[{i}] ({kind}): unknown keys {sorted(bad_keys)}"
                )
            events.append(FaultEvent(**e))
        try:
            policy = RetryPolicy(**d.get("policy", {}))
        except TypeError as exc:
            raise FaultPlanError(str(exc)) from None
        return FaultPlan(
            events=tuple(events),
            policy=policy,
            mtbf=d.get("mtbf"),
            mttr=d.get("mttr"),
            stochastic_kind=d.get("stochastic_kind", "ost_fail"),
            max_stochastic=d.get("max_stochastic", 0),
            silent_error_rate=d.get("silent_error_rate", 0.0),
        )

    @staticmethod
    def from_json(path: str) -> "FaultPlan":
        try:
            with open(path) as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise FaultPlanError(f"cannot load fault plan {path}: {exc}")
        return FaultPlan.from_dict(data)

    def save_json(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2)
            fh.write("\n")

    def with_policy(self, **kwargs) -> "FaultPlan":
        return replace(self, policy=replace(self.policy, **kwargs))

    # -- timeline expansion ----------------------------------------------
    def materialize(
        self, rng, n_osts: int, n_ranks: int
    ) -> Tuple[FaultEvent, ...]:
        """Validate targets and expand the stochastic model.

        ``rng`` is a numpy Generator (the run's ``"faults"`` stream);
        it is only consumed when the stochastic model is enabled, so
        purely declarative plans never perturb other streams.
        """
        timeline = list(self.events)
        for e in timeline:
            if (
                e.kind in _CORRUPTION_KINDS
                and not 0 <= e.target < n_osts
            ):
                raise FaultPlanError(
                    f"{e.kind} target {e.target} out of range for "
                    f"{n_osts} OSTs"
                )
            if e.kind in _OST_KINDS and not 0 <= e.target < n_osts:
                raise FaultPlanError(
                    f"{e.kind} target {e.target} out of range for "
                    f"{n_osts} OSTs"
                )
            if e.kind == "crash_rank" and not 0 <= e.target < n_ranks:
                raise FaultPlanError(
                    f"crash_rank target {e.target} out of range for "
                    f"{n_ranks} ranks"
                )
        if self.mtbf is not None:
            t = 0.0
            for _ in range(self.max_stochastic):
                t += float(rng.exponential(self.mtbf))
                target = int(rng.integers(0, n_osts))
                duration = (
                    float(rng.exponential(self.mttr))
                    if self.mttr is not None
                    else None
                )
                timeline.append(
                    FaultEvent(
                        time=t,
                        kind=self.stochastic_kind,
                        target=target,
                        factor=(
                            0.25 if self.stochastic_kind == "ost_brownout"
                            else 1.0
                        ),
                        duration=duration,
                    )
                )
        timeline.sort(key=lambda e: e.time)
        return tuple(timeline)


def two_ost_failure_plan(
    osts: Sequence[int] = (0, 1), at: float = 0.5, **policy
) -> FaultPlan:
    """The README's quick-start: fail-stop two targets mid-write."""
    return FaultPlan(
        events=tuple(
            FaultEvent(time=at, kind="ost_fail", target=int(o)) for o in osts
        ),
        policy=RetryPolicy(**policy),
    )
