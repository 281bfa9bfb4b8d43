"""Protocol messages and tags of the adaptive-IO method.

One dataclass per message named in Algorithms 1-3 of the paper, plus
the writer-facing write signal.  Tags segregate the three logical
endpoints living on coordinator/sub-coordinator ranks (a rank can be
writer, SC and C at once — roles are processes sharing the rank's
inbox, distinguished by tag).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

__all__ = [
    "TAG_WRITER",
    "TAG_SC",
    "TAG_COORD",
    "TAG_ADOPTED_BASE",
    "WriteStart",
    "WriteComplete",
    "WriteFailed",
    "IndexBody",
    "AdaptiveWriteStart",
    "WritersBusy",
    "OverallWriteComplete",
    "ScComplete",
    "ScIndex",
    "ScRelocated",
    "Heartbeat",
    "WriterRelease",
    "CoordBatch",
]

TAG_WRITER = 10  # messages addressed to a rank's writer role
TAG_SC = 11  # messages addressed to a rank's sub-coordinator role
TAG_COORD = 12  # messages addressed to the coordinator role
# Adopted sub-coordinators: when the coordinator takes over a dead SC's
# group, the replacement endpoint lives on the coordinator's rank under
# TAG_ADOPTED_BASE + group so it never collides with the rank's own
# writer/SC/C roles (or with other adopted groups).
TAG_ADOPTED_BASE = 20


@dataclass(frozen=True)
class WriteStart:
    """SC -> writer: '(target, offset)' — go write your buffer.

    ``target_group`` identifies the sub-file/OST; ``offset`` is the
    byte position in it.  ``adaptive`` marks steered (foreign-target)
    writes for bookkeeping.  ``epoch`` is the target group's file
    incarnation (bumped on relocation after a storage failure);
    ``recovery`` marks re-issued writes whose first attempt was lost
    with a dead incarnation, so completion bookkeeping is not double
    counted.
    """

    target_group: int
    offset: float
    adaptive: bool = False
    epoch: int = 0
    recovery: bool = False


@dataclass(frozen=True)
class WriteComplete:
    """writer -> SC (and SC -> C): a write against ``target_group`` done.

    ``source_rank``/``source_group`` identify the writer;
    ``nbytes`` lets the coordinator advance the target file's offset
    cursor for the next adaptive write; ``index_nbytes`` pre-announces
    the index body so the target SC can count missing indices.
    """

    source_rank: int
    source_group: int
    target_group: int
    nbytes: float
    index_nbytes: float
    adaptive: bool = False
    epoch: int = 0
    recovery: bool = False


@dataclass(frozen=True)
class IndexBody:
    """writer -> target SC: the local index for a completed write.

    The entries are the writer's whole output laid from ``offset``; the
    SC indexes them from the application's columns
    (``LocalIndex.add_output``).
    """

    source_rank: int
    target_group: int
    offset: float
    epoch: int = 0


@dataclass(frozen=True)
class AdaptiveWriteStart:
    """C -> SC: schedule one of your waiting writers onto ``target_group``."""

    target_group: int
    offset: float
    epoch: int = 0


@dataclass(frozen=True)
class WritersBusy:
    """SC -> C: all my writers are already scheduled; cannot help."""

    source_group: int
    target_group: int  # the adaptive target we had to decline
    offset: float  # echo so C can re-offer the same slot elsewhere


@dataclass(frozen=True)
class OverallWriteComplete:
    """C -> all SCs: every byte is on its way; finalize indices."""


@dataclass(frozen=True)
class ScComplete:
    """SC -> C: all writers of my group have completed their writes.

    ``final_offset`` is my sub-file's data tail — the coordinator notes
    it and hands out adaptive offsets from there.
    """

    source_group: int
    final_offset: float
    epoch: int = 0


@dataclass(frozen=True)
class ScIndex:
    """SC -> C: my merged local index (sent after OVERALL completes)."""

    source_group: int
    file_path: str
    entries: Sequence  # the finalized local index's EntryTable
    index_nbytes: float


@dataclass(frozen=True)
class WriteFailed:
    """writer -> target SC (relayed SC -> C): a write attempt is abandoned.

    Sent after a fail-stop error or after the retry budget for a hung
    target is exhausted.  ``epoch`` is the incarnation the writer was
    writing against; a failure against the *current* epoch triggers
    relocation, a stale one is already being handled.
    """

    source_rank: int
    source_group: int
    target_group: int
    nbytes: float
    epoch: int = 0
    adaptive: bool = False
    recovery: bool = False
    reason: str = ""


@dataclass(frozen=True)
class ScRelocated:
    """SC -> C: my group's file moved to a new incarnation.

    The coordinator un-poisons the group, records the new epoch, and
    resumes steering toward it once it re-announces completion.
    """

    source_group: int
    epoch: int


@dataclass(frozen=True)
class Heartbeat:
    """SC -> C: liveness beacon (fault mode only)."""

    source_group: int
    rank: int


@dataclass(frozen=True)
class WriterRelease:
    """SC/C -> writer: shut down your service loop (fault mode only)."""


@dataclass(frozen=True)
class CoordBatch:
    """SC -> C: several same-instant control messages in one envelope.

    The batched (cohort) protocol accumulates every coordinator-bound
    64-byte control payload a single synchronous handler burst emits
    (e.g. a steered write's WriteComplete relay plus the ScComplete it
    unlocks) and ships them as one message.  The coordinator unwraps
    ``payloads`` in order through the same dispatch path as loose
    messages, so steering decisions are unchanged — only the number of
    simulated sends differs.
    """

    payloads: tuple  # tuple of coordinator-bound message dataclasses
