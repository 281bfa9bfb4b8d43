"""The static IO methods: every write lands at a place fixed up front.

The paper measures adaptive IO against four methods that never react
to a slow storage target: IOR's POSIX file-per-process (Section II),
the tuned ADIOS MPI-IO shared file (Section III-A), split files
(Section II-3) and the CUG'09 stagger method.  :class:`StaticTransport`
runs them all; a preset picks the layout, open policy and flush order.
A *lane* is one writer process playing an ordered list of ranks: one
rank, or one stagger group.

Under a fault plan the static methods fail fast, with no retry: a lane
stops at its first failed write, a ``crash_rank`` kills the lane that
plays the rank, the join is bounded by the run timeout, and an unclean
run raises :class:`~repro.errors.TransportError` with byte accounting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence

from repro.core.groups import GroupMap
from repro.core.index import GlobalIndex
from repro.core.transports.base import (
    OutputResult,
    Transport,
    TransportRun,
    WriterTiming,
)
from repro.errors import OstFailedError, TransportError, WriteTimeout
from repro.sim.events import AllSettled

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


def _osts_used(requested, default: int, machine: "Machine") -> int:
    n = requested or default
    if not 1 <= n <= machine.n_osts:
        raise ValueError(
            f"n_osts_used {n} out of range for pool of {machine.n_osts}"
        )
    return n


class StaticTransport(Transport):
    """One write loop for every static IO method; see the module doc."""

    #: Simulation process names: "<tag>.main", "<tag>.<lane_prefix><i>".
    tag = "static"
    lane_prefix = ""
    #: Open policy.  False: the coordinator creates every file, then
    #: releases one lane per rank.  True: one lane per file creates
    #: its file, ``open_stagger * file`` seconds late if that is set,
    #: and waits until every file exists.
    lanes_open = False
    open_stagger: Optional[float] = None
    #: Flush order: None, "inline" (file after file) or "concurrent".
    flush_order: Optional[str] = "inline"
    build_index = True

    def _layout(self, machine: "Machine", app: "AppKernel",
                output_name: str) -> Layout:
        raise NotImplementedError

    def _pre_write(self, machine: "Machine", tr, pid: str, tid: str):
        """Generator each rank runs once its file is ready."""
        return ()

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
        tr = env.tracer
        chunk = app.per_process_bytes
        timings: List[Optional[WriterTiming]] = [None] * machine.n_ranks
        fobjs: Dict[int, object] = {}
        phase: Dict[str, float] = {}
        failures = {"write": [], "flush": [], "timed_out": False}
        # Each lane: (name index, file, first slot, end slot).
        if self.lanes_open:
            lanes = [(k, k, 0, len(ranks))
                     for k, ranks in enumerate(layout.members)]
        else:
            lanes = [(ranks[slot], k, slot, slot + 1)
                     for k, ranks in enumerate(layout.members)
                     for slot in range(len(ranks))]

        def create(k: int, ready):
            fobjs[k] = yield from fs.create(
                layout.paths[k], **layout.create_args(k)
            )
            if len(fobjs) == len(layout.paths):
                phase["open_end"] = env.now
                ready.succeed()  # every file exists: release the lanes

        def lane(k: int, lo: int, hi: int, ready):
            if self.lanes_open:
                if self.open_stagger is not None:
                    yield env.timeout(self.open_stagger * k)
                yield from create(k, ready)
            yield ready
            for slot in range(lo, hi):
                rank = layout.members[k][slot]
                node = machine.node_of(rank)
                pid, tid = f"node/{node}", f"rank {rank}"
                yield from self._pre_write(machine, tr, pid, tid)
                group = layout.target_group(k, slot)
                start = env.now
                if tr is not None:
                    tr.begin("write", cat="writer", pid=pid, tid=tid,
                             args={"nbytes": float(chunk),
                                   "target_group": group})
                try:
                    yield from fs.write(
                        fobjs[k], node=node, offset=slot * chunk,
                        nbytes=chunk, writer=rank,
                        timeout=policy and policy.write_timeout,
                        blocks=app.data_blocks(rank, slot * chunk),
                        tenant=tenant,
                    )
                except (OstFailedError, WriteTimeout) as exc:
                    # No retry: the failure is recorded, the lane ends,
                    # and the join and the accounting see the rest.
                    failures["write"].append((rank, str(exc)))
                    if tr is not None:
                        tr.instant("write.abort", cat="fault", pid=pid,
                                   tid=tid, args={"reason": str(exc)})
                        tr.end("write", cat="writer", pid=pid, tid=tid,
                               args={"failed": True})
                    return
                if tr is not None:
                    tr.end("write", cat="writer", pid=pid, tid=tid)
                timings[rank] = WriterTiming(rank, start, env.now, chunk,
                                             target_group=group)

        def flush(f):
            try:
                yield from fs.flush(f, timeout=policy and policy.flush_timeout)
            except (OstFailedError, WriteTimeout) as exc:
                failures["flush"].append(str(exc))

        def main():
            ready = env.event()
            prefix = f"{self.tag}.{self.lane_prefix}"
            procs = [env.process(lane(k, lo, hi, ready), name=f"{prefix}{i}")
                     for i, k, lo, hi in lanes]
            if faults is not None:
                # Arm the plan; a crash of any rank a lane plays kills it.
                faults.arm()
                for (_i, k, lo, hi), proc in zip(lanes, procs):
                    for rank in layout.members[k][lo:hi]:
                        faults.register(rank, proc)
            if not self.lanes_open:
                for k in range(len(layout.paths)):
                    yield from create(k, ready)
            if faults is None:
                yield env.all_of(procs)
            else:
                # Run-timeout backstop: a stalled run (a lane crashed before
                # the create barrier filled) still ends, with accounting.
                deadline = env.timeout(policy.run_timeout)
                yield env.any_of([AllSettled(env, procs), deadline])
                if deadline.processed and any(p.is_alive for p in procs):
                    failures["timed_out"] = True
                    for p in procs:
                        if p.is_alive:
                            p.kill("run timeout backstop")
            phase["write_end"] = env.now
            files = [fobjs[k] for k in sorted(fobjs)]
            if self.flush_order == "inline":
                for f in files:
                    yield from flush(f)
            elif self.flush_order == "concurrent":
                name = f"{self.tag}.flush"
                yield env.all_of([env.process(flush(f), name=name)
                                  for f in files])
            phase["flush_end"] = env.now
            for f in files:
                yield from fs.close(f)
            phase["close_end"] = env.now

        done = env.process(main(), name=f"{self.tag}.main")

        def collect() -> OutputResult:
            index = None
            if self.build_index:
                index = GlobalIndex()
                for k, path in enumerate(layout.paths):
                    entries = [
                        e for slot, rank in enumerate(layout.members[k])
                        if faults is None or timings[rank] is not None
                        for e in app.index_entries(rank, slot * chunk)
                    ]
                    if faults is not None and not entries:
                        continue  # none of the file's chunks landed
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
                per_writer=[t for t in timings if t is not None],
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
        """Fault accounting; raises TransportError on an unclean run."""
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
        written = float(sum(w.nbytes for w in result.per_writer))
        bytes_durable = max(0.0, written - cache_lost)
        bytes_lost = result.total_bytes - bytes_durable
        result.extra.update(bytes_durable=bytes_durable, bytes_lost=bytes_lost,
                            bytes_corrupt=corrupt, **faults.summary())
        missing = machine.n_ranks - len(result.per_writer)
        if not (failures["timed_out"] or failures["write"]
                or failures["flush"] or missing or corrupt):
            return
        reasons = []
        if failures["timed_out"]:
            reasons.append(f"run timeout ({faults.policy.run_timeout:g}s) hit")
        for kind in ("write", "flush"):
            if failures[kind]:
                reasons.append(f"{len(failures[kind])} {kind} failure(s)")
        if faults.crashed_ranks:
            reasons.append(f"{len(faults.crashed_ranks)} rank(s) crashed")
        if missing:
            reasons.append(f"{missing} writer(s) did not complete")
        if corrupt:
            reasons.append(f"{corrupt:.0f} B of stored output corrupt/torn")
        if machine.env.tracer is not None:
            machine.env.tracer.close_open_spans()  # aborts close their spans
        raise TransportError(
            f"{result.transport} output did not complete cleanly: "
            + "; ".join(reasons),
            bytes_durable=bytes_durable, bytes_lost=bytes_lost,
            partial=result, bytes_corrupt=corrupt,
        )


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
    include_flush:
        Whether the operation ends with an explicit flush to disk.
        Section II timings measure the write only; Section IV adds
        the flush.
    build_index:
        Also assemble a global index over the per-process files (off
        by default — plain IOR has no index).
    """

    name = tag = "posix"
    # Every rank waits for all creates before writing (IOR's
    # inter-phase barrier), so open time never pollutes write time.
    lanes_open = True

    def __init__(self, n_osts_used: Optional[int] = None,
                 include_flush: bool = False, build_index: bool = False):
        self.n_osts_used = n_osts_used
        self.include_flush = include_flush
        self.build_index = build_index
        self.flush_order = "inline" if include_flush else None

    def _layout(self, machine, app, output_name):
        n_osts = _osts_used(self.n_osts_used, machine.n_osts, machine)
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
    build_index:
        Assemble the BP-style index over the shared file (ADIOS does;
        raw MPI-IO wouldn't — on by default because the baseline *is*
        ADIOS).
    """

    name = tag = "mpiio"

    def __init__(self, stripe_count: Optional[int] = None,
                 build_index: bool = True):
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

    def _pre_write(self, machine, tr, pid, tid):
        # Offset exchange: every rank learns its slot via the
        # collective the real method runs (sizes are gathered and
        # offsets scanned); modelled at tree-collective cost.
        if tr is not None:
            tr.begin("wait", cat="writer", pid=pid, tid=tid)
        lat = machine.spec.latency.tree_collective(16.0, machine.n_ranks)
        yield machine.env.timeout(lat)
        if tr is not None:
            tr.end("wait", cat="writer", pid=pid, tid=tid)


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

    Parameters
    ----------
    n_files:
        Number of shared files; default ``ceil(pool / stripe cap)`` —
        enough to cover every storage target (the paper's "5 parts").
    """

    name = "splitfiles"
    tag = "split"
    flush_order = "concurrent"

    def __init__(self, n_files: Optional[int] = None,
                 build_index: bool = True):
        if n_files is not None and n_files < 1:
            raise ValueError("n_files must be >= 1")
        self.n_files = n_files
        self.build_index = build_index

    def _layout(self, machine, app, output_name):
        cap = machine.fs.max_stripe_count
        n_files = self.n_files or max(1, math.ceil(machine.n_osts / cap))
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

    Parameters
    ----------
    n_osts_used:
        Storage targets (= groups = sub-files); defaults to
        ``min(pool size, n_ranks)``.
    open_stagger:
        Seconds between consecutive groups' file creates.
    build_index:
        Assemble the global index (on by default; stagger is an ADIOS
        method and writes BP files).
    """

    name = tag = "stagger"
    lane_prefix = "g"
    lanes_open = True
    flush_order = "concurrent"

    def __init__(self, n_osts_used: Optional[int] = None,
                 open_stagger: float = 2.0e-3, build_index: bool = True):
        if open_stagger < 0:
            raise ValueError("open_stagger must be >= 0")
        self.n_osts_used = n_osts_used
        self.open_stagger = open_stagger
        self.build_index = build_index

    def _layout(self, machine, app, output_name):
        n_groups = _osts_used(self.n_osts_used,
                              min(machine.n_osts, machine.n_ranks), machine)
        groups = GroupMap(machine.n_ranks, min(n_groups, machine.n_ranks))
        return Layout(
            paths=[f"/{output_name}.bp.dir/{g:04d}.bp"
                   for g in range(groups.n_groups)],
            members=[groups.ranks_in(g) for g in range(groups.n_groups)],
            # One target per group, allocated when the group opens.
            create_args=lambda _g: {"osts": machine.fs.allocate_osts(1),
                                    "stripe_size": 1e15},
            extra={"n_groups": float(groups.n_groups)},
        )
