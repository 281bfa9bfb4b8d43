"""The static IO methods: every write lands at a place fixed up front.

The paper measures adaptive IO against four methods that never react
to a slow storage target: IOR's POSIX file-per-process (Section II),
the tuned ADIOS MPI-IO shared file (Section III-A), split files
(Section II-3) and the CUG'09 stagger method.  :class:`StaticTransport`
runs them all; a preset picks the layout, open policy and member order.
A *lane* is one writer process per file that plays the file's member
ranks: concurrently, each member's write started in slot order at one
instant and completed from its flow's callback, or, for stagger, one
after another in rank order.

Under a fault plan the static methods fail fast, with no retry: a
member stops at its failed write, a ``crash_rank`` kills the member
that plays the rank, a stagger lane stops at its first failed or
crashed member, and the run ends the way every transport's does
(:class:`~repro.core.transports.base.Transport`): the join is bounded
by the run timeout, and an unclean run raises
:class:`~repro.errors.TransportError` with byte accounting.
Where a lane creates its own file (POSIX, stagger), the file's creator
is its first member: a creator that dies before the file exists takes
the whole file with it, and the create barrier counts that file as
settled so the other lanes still write.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Integral
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence

from repro.core.groups import GroupMap
from repro.core.index import GlobalIndex, LocalIndex
from repro.core.transports.base import (
    OutputResult,
    Transport,
    TransportRun,
    WriterTimings,
    osts_used,
)
from repro.errors import OstFailedError, WriteTimeout

if TYPE_CHECKING:  # pragma: no cover
    from repro.apps.base import AppKernel
    from repro.machines.base import Machine

__all__ = ["Layout", "MpiIoTransport", "PosixTransport",
           "SplitFilesTransport", "StaggerTransport", "StaticTransport"]


@dataclass
class Layout:
    """Where one static output puts every rank's chunk.

    ``members[k]``: the ranks writing ``paths[k]``, in file order (a
    rank's offset is its slot times the chunk); together, every rank
    once, in rank order.  ``create_args(k)`` runs as file ``k`` is
    created; ``target_group(k, slot)`` labels a writer.
    """

    paths: List[str]
    members: List[Sequence[int]]
    create_args: Callable[[int], dict]
    target_group: Callable[[int, int], int] = lambda k, slot: k
    extra: Dict[str, float] = field(default_factory=dict)


class _Member:
    """One rank a lane plays: the handle a ``crash_rank`` kills, and
    the callback its write's completion calls.

    ``write`` is the member's write while it is in flight; a completion
    that finds it cleared belongs to a dead or abandoned writer and is
    dropped, its flows left in flight.
    """

    __slots__ = ("rank", "slot", "lane", "is_alive", "write")

    def __init__(self, rank: int, slot: int, lane: "_Lane"):
        self.rank = rank
        self.slot = slot
        self.lane = lane
        self.is_alive = True
        self.write = None

    def kill(self, cause=None) -> None:
        if self.is_alive:
            self.is_alive = False
            self.lane.on_kill(self)

    def __call__(self, _event) -> None:
        if self.write is not None:
            self.lane.on_landed(self)


class _Lane:
    """One file's writer process and the state its members share."""

    __slots__ = ("k", "members", "proc", "done", "cursor", "in_flight",
                 "on_landed", "on_kill")

    def __init__(self, k: int, ranks: Sequence[int], done, on_landed,
                 on_kill):
        self.k = k
        self.members = [_Member(rank, slot, self)
                        for slot, rank in enumerate(ranks)]
        self.proc = None
        self.done = done  # fires once no member is left to play
        self.cursor = 0  # next member to start
        self.in_flight = 0
        self.on_landed = on_landed
        self.on_kill = on_kill


class StaticTransport(Transport):
    """One write loop for every static IO method; see the module doc.

    Each file gets one lane: a writer process that creates the file
    (when ``lanes_open``), waits at the create barrier, then plays the
    file's members.  Members start their writes in slot order at one
    instant, and each finishes from its write's completion callback;
    where lanes open their own files (POSIX, stagger), each member
    starts from the previous one's callback instead.  A ``crash_rank``
    kills the rank's member handle, not the lane.
    """

    #: Simulation process names: "<tag>.main", "<tag>.<lane_prefix><k>".
    tag = "static"
    lane_prefix = ""
    #: Open policy.  False: the coordinator creates every file, then
    #: releases the lanes, and each lane starts all its members' writes
    #: at once.  True: each lane creates its file, ``open_stagger *
    #: file`` seconds late if that is set, waits until every file exists
    #: (or has lost its creator), then plays its members in rank order,
    #: each starting as the previous one lands (stagger's one writer at
    #: a time per target; a POSIX lane has one member).
    lanes_open = False
    open_stagger: Optional[float] = None
    #: Flush order: None, "inline" (file after file) or "concurrent".
    flush_order: Optional[str] = "inline"
    build_index = True

    def _layout(self, machine: "Machine", app: "AppKernel",
                output_name: str) -> Layout:
        raise NotImplementedError

    def _pre_write(self, machine: "Machine") -> float:
        """Seconds every member waits, once its file is ready, before
        its write starts (traced as a ``wait`` span); 0 for none."""
        return 0.0

    def launch(self, machine: "Machine", app: "AppKernel",
               output_name: str = "output") -> TransportRun:
        env = machine.env
        fs = machine.fs
        faults = machine.faults
        snap = self._watch_fabric(machine)
        t0 = env.now  # launching never advances the clock
        layout = self._layout(machine, app, output_name)
        # Tenant id for QoS flow tagging; a plain Machine has none and
        # stays untagged, a TenantView stamps its tenant on every write.
        tenant = getattr(machine, "tenant", -1)
        policy = faults.policy if faults is not None else None
        timeout = policy and policy.write_timeout
        in_order = self.lanes_open
        pre_wait = self._pre_write(machine)
        tr = env.tracer
        chunk = app.per_process_bytes
        timings = WriterTimings(machine.n_ranks)
        fobjs: Dict[int, object] = {}
        lost_files = set()  # files whose creator died before creating them
        phase: Dict[str, float] = {}
        failures = {"write": [], "flush": [], "timed_out": False}
        ready = env.event()

        def file_settled():
            if len(fobjs) + len(lost_files) == len(layout.paths):
                phase["open_end"] = env.now
                ready.succeed()  # every file exists or is lost: release

        def create(k: int):
            fobjs[k] = yield from fs.create(
                layout.paths[k], **layout.create_args(k)
            )
            file_settled()

        def thread(rank: int):
            return f"node/{machine.node_of(rank)}", f"rank {rank}"

        def fail(m: _Member, exc: Exception) -> None:
            # No retry: the failure is recorded, the member ends, and
            # the join and the accounting see the rest.
            failures["write"].append((m.rank, str(exc)))
            if tr is not None:
                pid, tid = thread(m.rank)
                tr.instant("write.abort", cat="fault", pid=pid, tid=tid,
                           args={"reason": str(exc)})
                tr.end("write", cat="writer", pid=pid, tid=tid,
                       args={"failed": True})

        def begin(m: _Member):
            """Start m's write now: its PendingWrite, or None if the
            write failed up front."""
            node = machine.node_of(m.rank)
            if tr is not None:
                pid, tid = f"node/{node}", f"rank {m.rank}"
                if pre_wait:
                    tr.end("wait", cat="writer", pid=pid, tid=tid)
                tr.begin("write", cat="writer", pid=pid, tid=tid,
                         args={"nbytes": float(chunk),
                               "target_group": layout.target_group(
                                   m.lane.k, m.slot)})
            try:
                return fs.start_write(
                    fobjs[m.lane.k], node=node, offset=m.slot * chunk,
                    nbytes=chunk, writer=m.rank, timeout=timeout,
                    tenant=tenant,
                )
            except (OstFailedError, WriteTimeout) as exc:
                fail(m, exc)
                return None

        def complete(m: _Member, w) -> bool:
            """Finish m's write w; False if it failed."""
            try:
                fs.finish_write(w, blocks=app.blocks_of(m.rank))
            except (OstFailedError, WriteTimeout) as exc:
                fail(m, exc)
                return False
            if tr is not None:
                pid, tid = thread(m.rank)
                tr.end("write", cat="writer", pid=pid, tid=tid)
            timings.set(m.rank, w.start, env.now, chunk,
                        target_group=layout.target_group(m.lane.k, m.slot))
            return True

        def play(lane: _Lane) -> None:
            """Start members from the lane's cursor: every one left, or
            (in order) up to the first in flight; end the lane once
            nothing is left to start or in flight."""
            members = lane.members
            while lane.cursor < len(members):
                m = members[lane.cursor]
                lane.cursor += 1
                w = begin(m) if m.is_alive else None
                if w is not None:
                    m.write = w
                    lane.in_flight += 1
                    fs.when_written(w, m)  # calls landed(m)
                    if in_order:
                        return  # the next member starts as this one lands
                elif in_order:
                    lane.cursor = len(members)  # stop at a dead member
            if lane.in_flight == 0:
                lane.done.succeed()

        def settle(m: _Member, ok: bool) -> None:
            """m's write is over: landed (ok), failed or killed."""
            lane = m.lane
            m.write = None
            lane.in_flight -= 1
            if in_order:
                if not ok:
                    lane.cursor = len(lane.members)  # the lane stops here
                play(lane)
            elif lane.in_flight == 0:
                lane.done.succeed()

        def landed(m: _Member) -> None:
            settle(m, complete(m, m.write))

        def killed(m: _Member) -> None:
            lane = m.lane
            if self.lanes_open and m.slot == 0 and lane.k not in fobjs:
                # The creator died before its file exists: the file is
                # never created and none of its members write.
                lane.proc.kill(f"rank {m.rank} crashed before create")
                lost_files.add(lane.k)
                file_settled()
            elif m.write is not None:
                # Its flows stay in flight, like any dead writer's.
                settle(m, False)

        def lane_body(lane: _Lane):
            if self.lanes_open:
                if self.open_stagger is not None:
                    yield env.timeout(self.open_stagger * lane.k)
                yield from create(lane.k)
            yield ready
            if pre_wait:
                if tr is not None:  # each wait span ends as its write begins
                    for m in lane.members:
                        if m.is_alive:
                            pid, tid = thread(m.rank)
                            tr.begin("wait", cat="writer", pid=pid, tid=tid)
                yield env.timeout(pre_wait)
            play(lane)
            yield lane.done

        lanes = [_Lane(k, ranks, env.event(), landed, killed)
                 for k, ranks in enumerate(layout.members)]

        def main():
            prefix = f"{self.tag}.{self.lane_prefix}"
            for lane in lanes:
                lane.proc = env.process(lane_body(lane),
                                        name=f"{prefix}{lane.k}")
            if faults is not None:
                # Arm the plan; a crash of a rank kills its member.
                faults.arm()
                for lane in lanes:
                    for m in lane.members:
                        faults.register(m.rank, m)
            if not self.lanes_open:
                for k in range(len(layout.paths)):
                    yield from create(k)
            if (yield from self._join(machine, lambda: [
                    lane.proc for lane in lanes if lane.proc.is_alive])):
                failures["timed_out"] = True
                for lane in lanes:
                    for m in lane.members:
                        m.write = None  # abandoned mid-write
            phase["write_end"] = env.now
            phase["flush_end"], phase["close_end"] = yield from (
                self._flush_close(machine, [fobjs[k] for k in sorted(fobjs)],
                                  self.flush_order, failures["flush"]))

        done = env.process(main(), name=f"{self.tag}.main")

        def collect() -> OutputResult:
            index = None
            if self.build_index:
                index = GlobalIndex()
                for k, path in enumerate(layout.paths):
                    local = LocalIndex(path)
                    for slot, rank in enumerate(layout.members[k]):
                        if faults is None or timings.has(rank):
                            local.add_output(app, rank, slot * chunk)
                    if faults is not None and not len(local):
                        continue  # none of the file's chunks landed
                    entries = local.finalize()
                    index.add_file(path, entries)
                    if k in fobjs:
                        fobjs[k].attach_local_index(entries)
            open_end = phase.get("open_end", phase["write_end"])
            result = OutputResult(
                transport=self.name,
                n_writers=machine.n_ranks,
                total_bytes=chunk * machine.n_ranks,
                open_time=open_end - t0,
                write_time=phase["write_end"] - open_end,
                flush_time=phase["flush_end"] - phase["write_end"],
                close_time=phase["close_end"] - phase["flush_end"],
                per_writer=timings,
                files=[layout.paths[k] for k in sorted(fobjs)],
                index=index,
                extra=dict(layout.extra),
            )
            if faults is not None:
                self._account(machine, result, failures)
            return self._finish(machine, result, snap)

        return TransportRun(done=done, collect=collect)

    def _account(self, machine: "Machine", result: OutputResult,
                 failures: dict) -> None:
        """Fault accounting; an unclean run raises through
        :meth:`_raise_unclean`."""
        faults = machine.faults
        # No verify/rewrite loop: whatever the plan rotted stays rotten
        # and lands in the error accounting instead.
        corrupt = sum((blk.nbytes for path in result.files
                       for blk in machine.fs.lookup(path).stored_blocks()
                       if blk.corrupt or blk.torn), 0.0)
        # A write acknowledged into a target's cache is only as durable
        # as the cache: bytes a fail-stop destroyed before they drained
        # are subtracted from the completed writes.
        cache_lost = float(machine.pool.bytes_lost.sum())
        written = float(result.per_writer.total_bytes())
        bytes_durable = max(0.0, written - cache_lost)
        bytes_lost = result.total_bytes - bytes_durable
        result.extra.update(bytes_durable=bytes_durable, bytes_lost=bytes_lost,
                            bytes_corrupt=corrupt, **faults.summary())
        missing = machine.n_ranks - len(result.per_writer)
        if not (failures["timed_out"] or failures["write"]
                or failures["flush"] or missing or corrupt):
            return
        reasons = [f"{len(failures[kind])} {kind} failure(s)"
                   for kind in ("write", "flush") if failures[kind]]
        if faults.crashed_ranks:
            reasons.append(f"{len(faults.crashed_ranks)} rank(s) crashed")
        if missing:
            reasons.append(f"{missing} writer(s) did not complete")
        if corrupt:
            reasons.append(f"{corrupt:.0f} B of stored output corrupt/torn")
        self._raise_unclean(machine, result, failures["timed_out"], reasons)


class PosixTransport(StaticTransport):
    """POSIX file-per-process — the IOR configuration.

    Section II's interference measurements use IOR "configured ...
    where each process writes data to a separate file and to some
    fixed OST using POSIX-IO.  Writers are split evenly across the 512
    OSTs."  Every rank creates its own single-stripe file pinned to
    ``rank % n_osts_used``, then all ranks write their buffers
    concurrently.

    Parameters
    ----------
    n_osts_used:
        Storage targets the writers are split across (the paper uses
        512 of Jaguar's 672).  Defaults to the whole pool.
    build_index:
        Also assemble a global index over the per-process files (off
        by default — plain IOR has no index).

    The operation ends without a flush to disk: Section II times the
    write only.
    """

    name = tag = "posix"
    # Every rank waits for all creates before writing (IOR's
    # inter-phase barrier), so open time never pollutes write time.
    lanes_open = True
    flush_order = None

    def __init__(self, n_osts_used: Optional[int] = None,
                 build_index: bool = False):
        self.n_osts_used = n_osts_used
        self.build_index = build_index

    def _layout(self, machine, app, output_name):
        n_osts = osts_used(self.n_osts_used, machine.n_osts, machine)
        return Layout(
            paths=[f"/{output_name}/rank{r:06d}.dat"
                   for r in range(machine.n_ranks)],
            members=[(r,) for r in range(machine.n_ranks)],
            create_args=lambda r: {"osts": [r % n_osts]},
            target_group=lambda r, _slot: r % n_osts,
        )


class MpiIoTransport(StaticTransport):
    """Buffered shared-file MPI-IO output (the ADIOS MPI method).

    This is the paper's comparison point (Section III-A): "The MPI-IO
    transport method was developed as one of the first options offered
    by ADIOS ... leading to excellent peak IO performance seen on
    Jaguar and its Lustre file system.  Substantial performance
    advantages are derived from limited asynchronicity, by buffering
    all output data on compute nodes before writing it."

    Concretely the tuned method writes one shared file:

    * stripe count capped at 160 OSTs (the Lustre 1.6 per-file limit
      the paper identifies as the structural bottleneck);
    * stripe size set to the per-process chunk size, so each rank's
      buffered, contiguous chunk lands on exactly one OST and ranks
      round-robin over the file's stripes — the stripe-aligned layout
      the ADIOS Jaguar tuning used (Lofstead et al., IPDPS'09);
    * all ranks write simultaneously after a coordination step that
      computes offsets (modelled as a tree collective).

    With 16 384 writers over 160 OSTs that is ~102 concurrent streams
    per storage target — precisely the internal-interference regime of
    Fig. 1 — and the whole operation gates on the slowest OST, which is
    what external interference exploits.

    Parameters
    ----------
    stripe_count:
        Stripes requested for the shared file; clamped to the file
        system's per-file limit (160 on Lustre 1.6) and the pool size.
        None selects that limit; a non-integer or a value below 1 is a
        :class:`ValueError`.
    build_index:
        Assemble the BP-style index over the shared file (ADIOS does;
        raw MPI-IO wouldn't — on by default because the baseline *is*
        ADIOS).
    """

    name = tag = "mpiio"

    def __init__(self, stripe_count: Optional[int] = None,
                 build_index: bool = True):
        if stripe_count is not None and not (
                isinstance(stripe_count, Integral) and stripe_count >= 1):
            raise ValueError(f"stripe_count must be an integer >= 1, "
                             f"got {stripe_count!r}")
        self.stripe_count = stripe_count
        self.build_index = build_index

    def _layout(self, machine, app, output_name):
        cap = machine.fs.max_stripe_count
        stripes = min(self.stripe_count or cap, cap, machine.n_osts)
        chunk = app.per_process_bytes
        return Layout(
            paths=[f"/{output_name}.bp"],
            members=[range(machine.n_ranks)],
            # Rank 0 creates the shared file; stripe-aligned layout.
            create_args=lambda _k: {"stripe_count": stripes,
                                    "stripe_size": chunk},
            target_group=lambda _k, rank: rank % stripes,
            extra={"stripe_count": float(stripes)},
        )

    def _pre_write(self, machine):
        # Offset exchange: every rank learns its slot via the
        # collective the real method runs (sizes are gathered and
        # offsets scanned); modelled at tree-collective cost.
        return machine.spec.latency.tree_collective(16.0, machine.n_ranks)


class SplitFilesTransport(StaticTransport):
    """MPI-IO-style concurrent writing into K stripe-capped files.

    The paper's Section II-3 alternative: "Another approach to reducing
    internal interference is to split output into a collection of
    files to match the parallel file system being used.  In the case
    of Jaguar and its Lustre FS, for instance, splitting output into 5
    parts would enable an application to take full advantage of the
    entire file system's resources."  (672 targets / 160-stripe cap
    ≈ 5 files.)

    The paper's verdict — "this helps alleviate internal interference,
    but does not solve it nor does it address external interference" —
    is exactly what the split-files ablation bench demonstrates: more
    targets help, but all writers still write simultaneously and
    nothing reacts to slow targets.

    The number of shared files is ``ceil(pool / stripe cap)`` — just
    enough to cover every storage target (the paper's "5 parts").

    Parameters
    ----------
    build_index:
        Assemble the global index over the files (on by default).
    """

    name = "splitfiles"
    tag = "split"
    flush_order = "concurrent"

    def __init__(self, build_index: bool = True):
        self.build_index = build_index

    def _layout(self, machine, app, output_name):
        cap = machine.fs.max_stripe_count
        n_files = math.ceil(machine.n_osts / cap)
        groups = GroupMap(machine.n_ranks, min(n_files, machine.n_ranks))
        chunk = app.per_process_bytes
        stripes = [min(cap, machine.n_osts, groups.group_size(g))
                   for g in range(groups.n_groups)]
        return Layout(
            paths=[f"/{output_name}.part{g}.bp"
                   for g in range(groups.n_groups)],
            members=[groups.ranks_in(g) for g in range(groups.n_groups)],
            create_args=lambda g: {"stripe_count": stripes[g],
                                   "stripe_size": chunk},
            extra={"n_files": float(groups.n_groups)},
        )


class StaggerTransport(StaticTransport):
    """Staggered opens + per-target serialization, no adaptation.

    The ADIOS *stagger* method — prior work, kept as an ablation.
    "Some results for the ADIOS stagger IO approach were reported at
    the 2009 Cray User's Group.  Stagger addressed internal
    interference and exposed the magnitude of the transient external
    interference."

    Stagger does two things adaptive IO inherits, and nothing more:

    * file opens are staggered in time so the metadata server sees a
      trickle, not a thundering herd;
    * each storage target serves its writers one at a time (static
      serialization): a group's members write in rank order.

    Crucially there is **no coordinator and no steering**: a group
    stuck behind a slow OST stays stuck, which is exactly the gap
    adaptive IO closes — making this the natural ablation baseline.

    It uses ``min(pool size, n_ranks)`` storage targets (= groups =
    sub-files), creates consecutive groups' files ``open_stagger``
    seconds apart, and assembles the global index (stagger is an ADIOS
    method and writes BP files).
    """

    name = tag = "stagger"
    lane_prefix = "g"
    lanes_open = True
    open_stagger = 2.0e-3
    flush_order = "concurrent"

    def _layout(self, machine, app, output_name):
        groups = GroupMap(machine.n_ranks,
                          min(machine.n_osts, machine.n_ranks))
        return Layout(
            paths=[f"/{output_name}.bp.dir/{g:04d}.bp"
                   for g in range(groups.n_groups)],
            members=[groups.ranks_in(g) for g in range(groups.n_groups)],
            # One target per group, allocated when the group opens.
            create_args=lambda _g: {"osts": machine.fs.allocate_osts(1),
                                    "stripe_size": 1e15},
            extra={"n_groups": float(groups.n_groups)},
        )
