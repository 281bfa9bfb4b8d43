"""Adaptive IO — the paper's contribution (Algorithms 1-3).

Writers are partitioned into one group per storage target in use; each
group's first rank carries the **sub-coordinator** (SC) role and rank
0 additionally the **coordinator** (C) role.  "The coordinator and
writers only communicate with the sub coordinators, never directly
with each other."

* Each SC owns a sub-file pinned to its group's OST and signals its
  writers **one at a time** — one active stream per storage target,
  eliminating internal interference by construction.
* As SCs finish, C learns which targets are free (and their final
  offsets) and *steers* waiting writers from still-busy groups onto
  them — ADAPTIVE_WRITE_START / WRITERS_BUSY — spreading requests
  round-robin over the writing SCs so no single group drains first.
* Writers ship their local index to the *target* SC after the data
  ("this additional metadata transfer can take place concurrently
  with another process writing to storage"); SCs sort/merge and write
  their file's index, then send it to C, which merges and writes the
  global index.

The mechanism "scales according to the number of storage targets
rather than the number of writers": C exchanges messages only with
SCs, and at most ``n_groups - 1`` adaptive writes are in flight.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import deque
from numbers import Integral
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.core.groups import GroupMap
from repro.core.index import GlobalIndex, LocalIndex
from repro.core.integrity import verify_stored
from repro.core.messages import (
    TAG_ADOPTED_BASE,
    TAG_COORD,
    TAG_SC,
    TAG_WRITER,
    AdaptiveWriteStart,
    CoordBatch,
    Heartbeat,
    IndexBody,
    OverallWriteComplete,
    ScComplete,
    ScIndex,
    ScRelocated,
    WriteComplete,
    WriteFailed,
    WritersBusy,
    WriterRelease,
    WriteStart,
)
from repro.core.transports.base import (
    OutputResult,
    Transport,
    TransportRun,
    WriterTimings,
    osts_used,
)
from repro.errors import (
    OstFailedError,
    ProtocolError,
    StripeLimitExceeded,
    WriteTimeout,
)
from repro.mpi.comm import SimComm
from repro.sim.engine import Alarm
from repro.sim.events import AllSettled
from repro.sim.process import Mailbox
from repro.trace.tracer import rank_track

if TYPE_CHECKING:  # pragma: no cover
    from repro.apps.base import AppKernel
    from repro.machines.base import Machine

__all__ = ["AdaptiveTransport"]

_WRITING, _BUSY, _COMPLETE = "writing", "busy", "complete"

#: A hardened writer's retryable failed attempt, by kind: the failure
#: text once the retry budget is spent, the run counter a retry bumps,
#: and the retry's trace instant and category.
_RETRY_STEPS = {
    "timeout": ("timed out", "retries", "write.retry", "fault"),
    "verify": ("read-back verify failed", "verify_failures",
               "write.verify_fail", "integrity"),
}

# Boundary slack when recovering member boundaries from flow progress:
# a timer may land within float rounding of the exact byte crossing.
_BOUNDARY_TOL = 1e-3  # bytes


class _GroupStream:
    """One cohort's group: its serialized member pipeline on its OST.

    The healthy protocol's cohorts drive group-local data movement
    through this helper.  Instead of one simulated process and one
    fabric flow per member write, the stream models the group's
    one-at-a-time schedule as a **single aggregate flow** whose bytes
    are the members' segments back to back.  Member boundaries are
    recovered with pure
    :meth:`~repro.net.fabric.FlowNetwork.flow_progress` queries: one
    :class:`~repro.sim.engine.Alarm` for the *next* boundary, which a
    rate watcher re-predicts whenever interference changes the drain
    rate.  The alarm pushes a calendar entry only when the boundary
    moves earlier; a later one is recorded and reached without a
    progress query.
    The final member is completed by the flow's own completion event,
    so its end time carries no timer rounding.

    This is the "pre-signaled pipelined gapless" timing model (see
    DESIGN.md §13): every member is signaled its slot in the plan at
    files-ready, builds its index once, and the group's OST never
    idles between members — exactly the steady state of the per-write
    protocol, without its per-write event traffic.  Steering steals
    pop not-yet-started members off the tail and truncate the
    aggregate flow by one segment, riding the fabric's
    skip-reallocation fast path.

    With ``writers_per_target > 1`` the stream instead runs that many
    independent single-member *lanes* (one flow each, handing off to
    the next member at each completion); boundaries then need no
    timers at all.

    Completion bookkeeping is centralized here: OST-span trace and
    stored-block registration (via
    :meth:`~repro.lustre.filesystem.FileSystem.record_aggregated_write`),
    the writer's wait/index/write trace spans, its row in the run's
    :class:`~repro.core.transports.base.WriterTimings`, and the
    cohort's accounting of the member's completion messages.  The
    stream also holds the rest of the cohort's per-group state: the
    completion counters, the coordinator outbox and the mailbox the
    cohort process waits on.  A stolen member leaves through
    :meth:`truncate_tail`, which spawns its steered write.
    """

    __slots__ = (
        "env", "run", "f", "ost", "g", "me", "src_node", "nbytes", "t_open",
        "pending", "finished", "_done", "_seg_start", "_fid", "_timer",
        "_lanes", "_next_lane", "_lane_start",
        # the cohort's per-group state
        "local_index", "mb", "out_coord", "n_members", "completions",
        "missing_foreign", "owc", "last_arrival",
    )

    def __init__(self, run: "_AdaptiveRun", g: int, path: str, f):
        env = run.env
        self.env = env
        self.run = run
        self.f = f
        self.ost = int(f.layout.osts[0])
        self.g = g
        self.me = run.sc_rank[g]
        self.src_node = run.machine.node_of(self.me)
        self.nbytes = float(run.nbytes)
        self.t_open = env.now  # files-ready instant (T0)
        members = run.groups.ranks_in(g)
        self.pending = list(members)  # members writing locally, in order
        self.finished = False
        self._done = 0  # members completed (index of the one in progress)
        self._seg_start = env.now
        self._fid = None  # aggregate flow id (lanes == 1)
        # Next-boundary deadline, re-pushed only when a rate change
        # moves the boundary earlier.
        self._timer = Alarm(env, self._on_timer)
        self._lanes = run.transport.writers_per_target
        self._next_lane = 0  # next member index to get a lane (lanes > 1)
        self._lane_start = {}
        self.local_index = LocalIndex(path)
        self.mb = Mailbox(env)
        self.out_coord: List[object] = []
        self.n_members = len(members)
        self.completions = 0
        self.missing_foreign = 0  # foreign steered writes awaiting index
        self.owc = False  # OverallWriteComplete received
        # Watermark of the folded-away local WC/IndexBody arrivals; the
        # cohort may not finalize before it.
        self.last_arrival = env.now

    # -- lifecycle ---------------------------------------------------------
    def begin(self) -> None:
        """Start the group's data movement (armed at T0 + hop + build)."""
        self._seg_start = self.env.now
        if not self.pending:
            self.finished = True
            return
        if self._lanes > 1:
            self._next_lane = min(self._lanes, len(self.pending))
            for k in range(self._next_lane):
                self._start_lane(k)
            return
        total = len(self.pending) * self.nbytes
        fabric = self.run.fs.fabric
        ev, fid = fabric.start_flow_with_id(
            self.src_node, self.ost, total, tenant=self.run.tenant
        )
        self._fid = fid
        ev.add_callback(self._on_flow_done)
        fabric.watch_flow(fid, self._on_rate_change)
        self._arm_next()

    # -- steering ----------------------------------------------------------
    @property
    def has_stealable(self) -> bool:
        """A tail member exists that has not started writing locally."""
        if self.finished:
            return False
        if self._lanes > 1:
            return len(self.pending) > self._next_lane
        return len(self.pending) - 1 > self._done

    def truncate_tail(self, target: int, offset: float) -> int:
        """Steal the tail member for a steered write; returns its rank.

        The aggregate flow loses one segment's bytes off its
        undelivered tail (rate unchanged — the fabric's deferred
        settle rides the skip-reallocation fast path).
        """
        rank = self.pending.pop()
        if self._lanes <= 1 and self._fid is not None:
            try:
                self.run.fs.fabric.adjust_flow_bytes(self._fid, -self.nbytes)
            except KeyError:  # pragma: no cover - defensive
                pass
            if len(self.pending) - 1 <= self._done:
                # The in-progress member became the last: its end is
                # now the flow's completion, not a boundary timer.
                self._timer.clear()
        self.env.process(
            self.run.steered_proc(self, rank, target, offset),
            name=f"adaptive.steer.{rank}",
        )
        return rank

    @property
    def final_offset(self) -> float:
        """The sub-file's data tail: one segment per local member."""
        return len(self.pending) * self.nbytes

    # -- aggregate-flow boundary recovery (lanes == 1) ---------------------
    def _arm_next(self) -> None:
        fabric = self.run.fs.fabric
        while True:
            nxt = self._done + 1
            if nxt >= len(self.pending):
                self._timer.clear()
                return  # the flow's completion event drives the last member
            try:
                delivered, rate = fabric.flow_progress(self._fid)
            except KeyError:  # flow finished; _on_flow_done sweeps up
                self._timer.clear()
                return
            target = nxt * self.nbytes
            if delivered + _BOUNDARY_TOL >= target:
                self._finish_segment(self.env.now)
                continue
            if rate <= 0.0:
                self._timer.clear()  # starved; watcher re-arms on recovery
                return
            self._timer.set(self.env.now + (target - delivered) / rate)
            return

    def _on_timer(self) -> None:
        self._arm_next()

    def _on_rate_change(self, _now: float, _rate: float) -> None:
        if self.finished:
            return
        self._arm_next()

    def _on_flow_done(self, ev) -> None:
        if not ev.ok:  # pragma: no cover - clean path never faults
            return
        self._timer.clear()
        while self._done < len(self.pending):
            self._finish_segment(self.env.now)
        self.finished = True

    def _finish_segment(self, t_end: float) -> None:
        rank = self.pending[self._done]
        self._complete_member(rank, self._done, self._seg_start, t_end)
        self._done += 1
        self._seg_start = t_end

    # -- lane mode (writers_per_target > 1) --------------------------------
    def _start_lane(self, k: int) -> None:
        rank = self.pending[k]
        self._lane_start[k] = self.env.now
        run = self.run
        ev = run.fs.fabric.start_flow_with_id(
            run.machine.node_of(rank), self.ost, self.nbytes, run.tenant,
        )[0]
        ev.add_callback(lambda _ev, _k=k: self._on_lane_done(_k))

    def _on_lane_done(self, k: int) -> None:
        rank = self.pending[k]
        self._complete_member(rank, k, self._lane_start.pop(k), self.env.now)
        self._done += 1
        if self._next_lane < len(self.pending):
            nxt = self._next_lane
            self._next_lane += 1
            self._start_lane(nxt)
        elif self._done == len(self.pending):
            self.finished = True

    # -- member completion -------------------------------------------------
    def _complete_member(
        self, rank: int, idx: int, t_start: float, t_end: float
    ) -> None:
        run = self.run
        hop, build, app = run.hop, run.build, run.app
        offset = idx * self.nbytes
        node = run.machine.node_of(rank)
        run.fs.record_aggregated_write(
            self.f,
            node,
            offset,
            self.nbytes,
            t_start,
            t_end,
            writer=rank,
            blocks=app.blocks_of(rank),
        )
        if run.traced:
            tr = run.tracer
            wpid = f"node/{node}"
            wtid = rank_track(run.machine.rank_base, rank)
            t0 = self.t_open
            tr.begin("wait", cat="writer", pid=wpid, tid=wtid, ts=t0)
            tr.end(
                "wait", cat="writer", pid=wpid, tid=wtid, ts=t0 + hop,
                args={"target_group": self.g, "adaptive": False},
            )
            if build:
                tr.begin(
                    "index", cat="writer", pid=wpid, tid=wtid, ts=t0 + hop,
                )
                tr.end(
                    "index", cat="writer", pid=wpid, tid=wtid,
                    ts=t0 + hop + build,
                )
            tr.begin(
                "write", cat="writer", pid=wpid, tid=wtid, ts=t_start,
                args={"nbytes": float(self.nbytes), "target_group": self.g,
                      "offset": float(offset), "adaptive": False},
            )
            tr.end("write", cat="writer", pid=wpid, tid=wtid, ts=t_end)
        run.timings.set(rank, t_start, t_end, self.nbytes, self.g)
        # The member's WriteComplete and IndexBody are not sent: the
        # cohort accounts them at their arrival instants (+hop, +idx_hop).
        self.last_arrival = max(
            self.last_arrival, t_end + hop, t_end + run.idx_hop
        )
        self.local_index.add_output(app, rank, offset)
        self.env.schedule_callback(hop, self.local_wc_arrived)

    # -- the cohort's message accounting -----------------------------------
    @property
    def drained(self) -> bool:
        """Every member complete, no foreign index outstanding, and the
        coordinator's OverallWriteComplete in: the cohort may finish."""
        return (
            self.owc
            and self.completions == self.n_members
            and self.missing_foreign == 0
        )

    def flush_coord(self) -> None:
        """Send the outbox to C: one message, or one CoordBatch."""
        out = self.out_coord
        if not out:
            return
        run = self.run
        if len(out) == 1:
            run.comm.send(self.me, run.coord, out[0], tag=TAG_COORD)
        else:
            run.comm.send(
                self.me, run.coord, CoordBatch(tuple(out)), tag=TAG_COORD,
            )
        out.clear()

    def local_wc_arrived(self) -> None:
        # Runs +hop after a local boundary: the instant a WriteComplete
        # sent by the member would reach its SC.
        self.completions += 1
        if self.completions == self.n_members:
            self.out_coord.append(ScComplete(self.g, self.final_offset))
            self.flush_coord()
        if self.drained:
            self.mb.put(("poke",))

    def pump(self):
        """Forward the SC rank's real messages into the mailbox."""
        recv, me, put = self.run.comm.recv, self.me, self.mb.put
        while True:
            msg = yield recv(me, tag=TAG_SC)
            put(("msg", msg.payload))


class _ScState:
    """One group's hardened sub-coordinator and its incarnation.

    The incarnation ``(g, epoch)`` is the group's current sub-file
    (``path``, ``f``), its data ``cursor`` and index, the ranks landed
    on it (``done_set``, the run's ``done_sets[g]``: the ground truth
    for durability) and the foreign ranks it re-hosts.
    ``member_done`` and ``steered_away`` follow the group's own
    members across incarnations.
    """

    __slots__ = (
        "run", "g", "me", "epoch", "path", "f", "members",
        "member_set", "waiting", "cursor", "active_local", "member_done",
        "steered_away", "done_set", "foreign_pending", "missing_indices",
        "done", "local_index", "sc_complete_sent",
    )

    def __init__(self, run: "_AdaptiveRun", g: int, me: int, epoch: int,
                 path: str, f):
        self.run = run
        self.g = g
        self.me = me
        self.epoch = epoch
        self.path = path
        self.f = f
        self.members = run.groups.ranks_in(g)
        self.member_set = set(self.members)
        self.waiting = deque()
        self.cursor = 0.0
        self.active_local = 0
        self.member_done: set = set()  # members durably landed (anywhere)
        self.steered_away: set = set()  # members handed to adaptive steers
        self.done_set = run.done_sets[g]  # ranks landed on CURRENT incarnation
        self.done_set.clear()
        self.foreign_pending: set = set()  # foreign ranks re-hosted here
        self.missing_indices = 0
        self.done = False  # OverallWriteComplete received
        self.local_index = LocalIndex(path)
        self.sc_complete_sent = False

    def signal(self, w: int, recovery: bool) -> None:
        run = self.run
        if run.traced:
            run.tracer.instant(
                "WRITE_START", cat="steer", pid="adaptive",
                tid=f"sc {self.g}",
                args={"writer": w, "target_group": self.g,
                      "offset": float(self.cursor), "epoch": self.epoch,
                      "recovery": recovery},
            )
        run.comm.send(
            self.me, w,
            WriteStart(self.g, self.cursor,
                       adaptive=(w not in self.member_set),
                       epoch=self.epoch, recovery=recovery),
            tag=TAG_WRITER,
        )
        self.cursor += run.nbytes

    def signal_local(self) -> None:
        faults = self.run.faults
        limit = self.run.transport.writers_per_target
        waiting = self.waiting
        while not self.done and waiting and self.active_local < limit:
            w = waiting.popleft()
            if w in faults.crashed_ranks:
                continue
            self.signal(w, recovery=False)
            self.active_local += 1

    def incarnation_complete(self) -> bool:
        return self.member_set.issubset(
            self.member_done | self.run.faults.crashed_ranks
        ) and set(self.run.alive(self.foreign_pending)).issubset(
            self.done_set)

    def maybe_sc_complete(self) -> None:
        if self.sc_complete_sent or not self.incarnation_complete():
            return
        self.sc_complete_sent = True
        run = self.run
        run.comm.send(self.me, run.coord,
                      ScComplete(self.g, self.cursor, epoch=self.epoch),
                      tag=TAG_COORD)

    def orphaned(self, rank: int) -> bool:
        """Is a stale reporter without a current-epoch home?"""
        return (
            rank not in self.member_set
            and rank not in self.foreign_pending
            and rank not in self.done_set
            and rank not in self.run.faults.crashed_ranks
        )

    def relocate(self, reporter: int, reason: str):
        """Move to incarnation ``(g, epoch + 1)`` on a healthy OST and
        re-signal, in one recovery burst, everything it must host."""
        run, g = self.run, self.g
        run.relocations += 1
        self.epoch += 1
        run.epoch_of[g] = self.epoch
        old_done = set(self.done_set)
        # Members whose bytes live on another group keep their
        # completion; everything landed *here* must be redone.
        self.member_done.difference_update(old_done)
        # Named before the allocation, which raises when no healthy
        # OST is left: a stranded SC reports the new name.
        self.path = run._sub_file_path(g, self.epoch)
        self.f = yield from run._create_sub_file(g, self.epoch, self.path)
        if run.traced:
            run.tracer.instant(
                "SC_RELOCATE", cat="fault", pid="adaptive", tid=f"sc {g}",
                args={"epoch": self.epoch, "ost": int(self.f.layout.osts[0]),
                      "reason": reason},
            )
        foreign = (old_done - self.member_set) | self.foreign_pending
        if reporter not in self.member_set:
            foreign.add(reporter)
        self.done_set.clear()
        self.foreign_pending.clear()
        self.foreign_pending.update(run.alive(foreign))
        self.local_index = LocalIndex(self.path)
        self.missing_indices = 0
        self.cursor = 0.0
        self.active_local = 0
        self.waiting.clear()
        self.sc_complete_sent = False
        resignal = (set(run.alive(self.members)) - self.member_done
                    - self.steered_away)
        for w in sorted(resignal):
            self.signal(w, recovery=True)
        for w in sorted(self.foreign_pending):
            self.signal(w, recovery=True)
        run.comm.send(self.me, run.coord, ScRelocated(g, self.epoch),
                      tag=TAG_COORD)
        self.maybe_sc_complete()


class AdaptiveTransport(Transport):
    """The adaptive IO method.

    Parameters
    ----------
    n_osts_used:
        Storage targets (= groups = sub-files).  Defaults to
        ``min(pool size, n_ranks)``.  The paper's Jaguar evaluation
        uses 512 "to simplify the discussion of ratios" and reports no
        penalty at the full 672.
    steering:
        When False the coordinator never reassigns work — groups
        serialize their writers onto their own OST and nothing else
        (the "serialization without adaptation" ablation).
    writers_per_target:
        Simultaneous writers an SC keeps active on its OST (the paper
        implements 1 and notes 2-3 as a possible generalization).

    A healthy output runs one *cohort* process per sub-coordinator
    rather than one process per writer: it folds the per-write control
    messages into same-instant batches
    (:class:`~repro.core.messages.CoordBatch`) and rides one aggregate
    fabric flow per group, so simulator cost scales with groups and
    OSTs rather than writers and writes.  A fault plan on the machine
    selects the fault-hardened per-rank protocol.
    """

    name = tag = "adaptive"
    #: CPU seconds a writer spends building its local index.
    index_build_time = 2.0e-4

    def __init__(
        self,
        n_osts_used: Optional[int] = None,
        steering: bool = True,
        writers_per_target: int = 1,
    ):
        if not (isinstance(writers_per_target, Integral)
                and writers_per_target >= 1):
            raise ValueError(f"writers_per_target must be an integer >= 1, "
                             f"got {writers_per_target!r}")
        self.n_osts_used = n_osts_used
        self.steering = steering
        self.writers_per_target = writers_per_target

    def _n_groups(self, machine: "Machine") -> int:
        """Groups (= sub-files = targets in use) of one output."""
        n_ranks = machine.n_ranks
        default = min(machine.n_osts, n_ranks)
        return min(osts_used(self.n_osts_used, default, machine), n_ranks)

    def _make_group_map(self, n_ranks: int, n_groups: int):
        """Writer partition; subclasses may weight it (history-aware)."""
        return GroupMap(n_ranks, n_groups)

    def _steer_target_ok(self, target: int) -> bool:
        """May the coordinator steer writes onto this freed target?

        Always yes for the vanilla method (the paper's behaviour: a
        freed target is a fast target, because under uniform quotas
        slow groups finish last).  The history-aware subclass vetoes
        targets it believes are slow — with weighted quotas those can
        free up *early*, and blindly refilling them recreates the very
        tail the quotas avoided.
        """
        return True

    def launch(
        self,
        machine: "Machine",
        app: "AppKernel",
        output_name: str = "output",
    ) -> TransportRun:
        """Start one adaptive output (an :class:`_AdaptiveRun`)."""
        run = _AdaptiveRun(self, machine, app, output_name)
        run.done = machine.env.process(run.main(), name="adaptive.main")
        return TransportRun(done=run.done, collect=run.collect)


class _AdaptiveRun:
    """One adaptive output; both modes run through this object.

    The set-up, the Algorithm-3 coordinator, the sub-file
    create/``files_ready`` barrier, the SC index epilogue, the
    global-index write and the result are shared, and the run ends
    through :class:`Transport`'s join, flush/close and unclean-run
    raise.  Each mode brings only its member roles:

    * **cohort** (no fault plan): one :meth:`cohort_proc` per group
      drives a :class:`_GroupStream`;
    * **hardened** (``machine.faults`` set): per-rank
      :meth:`hardened_writer_proc` and :meth:`sc_body` with timeouts,
      relocation and adoption.

    The hardened protocol:

    * every data write carries a timeout; a timed-out writer backs
      off (capped exponential) and retries up to the policy budget
      before abandoning with ``WriteFailed``;
    * each group's sub-file is an *incarnation* ``(group, epoch)``
      (:class:`_ScState`).  A failure against the current epoch makes
      the SC relocate to a fresh file on a healthy OST, bump the
      epoch, and re-signal everything it was hosting in one recovery
      burst (after a failure, minimizing time-at-risk beats pacing).
      Messages about older epochs are stale: completions/failures from
      ranks nobody is re-hosting get a recovery signal, the rest are
      dropped;
    * the coordinator poisons steering targets that report
      failures, tracks SC liveness via heartbeats, and adopts a
      silent SC's group on its own rank under
      ``TAG_ADOPTED_BASE + group``;
    * the run is bounded by the run timeout.  However it ends,
      per-rank durability is accounted from the landing sets of the
      *current* incarnations; an unclean run raises
      :class:`~repro.errors.TransportError` carrying
      ``bytes_durable`` / ``bytes_lost`` and the partial result
      instead of hanging or silently under-reporting.

    Constructing the run schedules nothing: :meth:`AdaptiveTransport.launch`
    spawns :meth:`main`, which spawns the roles.
    """

    def __init__(self, transport: AdaptiveTransport, machine: "Machine",
                 app: "AppKernel", output_name: str):
        self.transport = transport
        self.machine = machine
        self.app = app
        env = self.env = machine.env
        fs = self.fs = machine.fs
        self.fabric_snap = transport._watch_fabric(machine)
        faults = self.faults = machine.faults
        hardened = self.hardened = faults is not None
        self.policy = faults.policy if hardened else None
        self.write_timeout = self.policy.write_timeout if hardened else None
        # Relocation must avoid dead targets; a healthy run keeps
        # Lustre's plain round-robin allocator.
        self.allocate = (fs.allocate_healthy_osts if hardened
                         else fs.allocate_osts)
        n_ranks = self.n_ranks = machine.n_ranks
        self.tenant = getattr(machine, "tenant", -1)
        n_groups = self.n_groups = transport._n_groups(machine)
        groups = self.groups = transport._make_group_map(n_ranks, n_groups)
        self.comm = SimComm(env, n_ranks, machine.rank_base,
                            latency=machine.spec.latency)
        self.comm.faults = faults
        self.nbytes = app.per_process_bytes
        self.index_nbytes = app.index_nbytes
        # Control-plane flight times the cohorts account without sending
        # the per-write messages: `hop` is one 64-byte control message,
        # `idx_hop` an index body (which can be *shorter* than a hop).
        self.hop = machine.spec.latency.point_to_point(64.0)
        self.idx_hop = machine.spec.latency.point_to_point(self.index_nbytes)
        self.build = transport.index_build_time
        self.tracer = env.tracer
        self.traced = self.tracer is not None
        # sc_rank/sc_tag are mutable: adoption redirects a group's SC
        # endpoint, and writers resolve the address at send time.
        self.sc_rank = [groups.sub_coordinator_of(g) for g in range(n_groups)]
        self.sc_tag = [TAG_SC] * n_groups
        self.coord = groups.coordinator
        self.group_of = [0] * n_ranks
        for g in range(n_groups):
            for r in groups.ranks_in(g):
                self.group_of[r] = g

        self.files: Dict[int, object] = {}  # group -> current incarnation
        self.files_at: Dict[tuple, object] = {}  # (group, epoch) -> SimFile
        self.paths_at: Dict[tuple, str] = {}
        self.epoch_of = [0] * n_groups
        self.timings = WriterTimings(n_ranks)
        # Run counters, reported in the result's extras.
        self.adaptive_writes = self.busy_bounces = 0
        self.retries = self.aborts = self.verify_failures = 0
        self.relocations = self.adoptions = 0
        self.phase: Dict[str, float] = {}
        self.output_name = output_name
        self.global_index = GlobalIndex()
        self.global_index_path = f"/{output_name}.bp.dir/index.bp"
        # Landing sets of the *current* incarnation of every group —
        # the ground truth for durability accounting after the run.
        self.done_sets: Dict[int, set] = {g: set() for g in range(n_groups)}
        self.flush_failures: List[str] = []
        self.index_failures: List[int] = []
        self.timed_out = False
        self.stop = False  # the protocol finished: services wind down
        self.files_ready = env.event()
        self.all_created = 0

        # The coordinator's state; the SC-liveness monitor and adoption
        # (same rank) share it.
        self.state: Dict[int, str] = {}
        # Kept in step with `state` by set_state: the _WRITING groups in
        # ascending order, which steering offers bisect instead of
        # scanning every group, and the number of groups not _COMPLETE.
        self.writing: List[int] = []
        self.n_open = 0
        self.cursor: Dict[int, float] = {}
        self.in_flight: Dict[int, bool] = {}
        self.target_epoch: Dict[int, int] = {}
        self.poisoned: set = set()
        self.last_seen: Dict[int, float] = {}
        self.adopted: set = set()
        self.sc_index_received: set = set()
        self.rr = 0  # round-robin cursor over writing SCs
        self.outstanding = 0  # steering offers not yet answered
        self.overall_sent = False
        self.protocol_procs: List = []  # SCs, C, then adopted SCs
        self.done = None  # the main process (spawned by launch)

    def alive(self, ranks):
        return [r for r in ranks if r not in self.faults.crashed_ranks]

    # -- shared steering trace instants -----------------------------------
    def _emit_steal_instant(self, g, w, target, offset, **epoch) -> None:
        if self.traced:
            self.tracer.instant(
                "WRITE_START", cat="steer", pid="adaptive", tid=f"sc {g}",
                args={"writer": w, "target_group": target,
                      "offset": float(offset), "adaptive": True, **epoch},
            )

    def _emit_busy_instant(self, g, target) -> None:
        if self.traced:
            self.tracer.instant(
                "WRITERS_BUSY", cat="steer", pid="adaptive",
                tid=f"sc {g}", args={"target_group": target},
            )

    # -- shared sub-file create + open barrier -----------------------------
    def _sub_file_path(self, g: int, epoch: int) -> str:
        suffix = f".e{epoch}" if epoch else ""
        return f"/{self.output_name}.bp.dir/{g:04d}{suffix}.bp"

    def _create_sub_file(self, g: int, epoch: int, path: str):
        """Create incarnation ``(g, epoch)``, make it g's current file."""
        f = yield from self.fs.create(path, osts=self.allocate(1),
                                      stripe_size=1e15)
        self.files[g] = f
        self.files_at[(g, epoch)] = f
        self.paths_at[(g, epoch)] = path
        return f

    def _arrive_open(self) -> None:
        """Take one group's seat in the all-files-created barrier."""
        self.all_created += 1
        if self.all_created == self.n_groups:
            self.phase["open_end"] = self.env.now
            self.files_ready.succeed()

    def _sc_open(self, g: int):
        path = self._sub_file_path(g, 0)
        f = yield from self._create_sub_file(g, 0, path)
        self._arrive_open()
        yield self.files_ready
        return path, f

    def _sc_epilogue(self, g: int, me: int, f, path: str, local_index):
        """Merge/write the file index and ship it to C (all modes)."""
        entries = local_index.finalize()
        local_index.check_no_overlap()
        try:
            yield from self.fs.write(
                f, node=self.machine.node_of(me), offset=f.size,
                nbytes=local_index.serialized_bytes, writer=me,
                payload=("local_index", entries),
                timeout=self.write_timeout, tenant=self.tenant,
            )
        except (OstFailedError, WriteTimeout) as exc:
            self.index_failures.append(g)
            if self.traced:
                self.tracer.instant(
                    "index.abort", cat="fault", pid="adaptive",
                    tid=f"sc {g}", args={"error": str(exc)},
                )
        self.comm.send(
            me, self.coord,
            ScIndex(g, path, entries, local_index.serialized_bytes),
            tag=TAG_COORD, nbytes=local_index.serialized_bytes,
        )

    # ---------------- Cohort role (Algorithm 2, healthy) ------------------
    # One process per *group*: it owns the stream, accounts local
    # member completions synchronously at their message-arrival
    # instants (scheduled +hop, float-identical to a real send), and
    # multiplexes everything else — real foreign messages via a pump,
    # steered-write completions, pokes — through one mailbox.
    # Per-writer processes and per-write message rounds disappear;
    # coordinator-bound bursts coalesce into CoordBatch.
    def cohort_proc(self, g: int):
        env = self.env
        path, f = yield from self._sc_open(g)
        stream = _GroupStream(self, g, path, f)
        if self.traced:
            # The group's write plan, announced at files-ready (T0).
            for k, w in enumerate(stream.pending):
                self.tracer.instant(
                    "WRITE_START", cat="steer", pid="adaptive",
                    tid=f"sc {g}",
                    args={"writer": w, "target_group": g,
                          "offset": float(k * self.nbytes)},
                )
        env.schedule_callback(self.hop + self.build, stream.begin)
        pump_p = env.process(stream.pump(), name=f"adaptive.pump.{g}")
        mb, out_coord = stream.mb, stream.out_coord
        while not stream.drained:
            item = yield mb.get()
            kind = item[0]
            if kind == "msg":
                p = item[1]
                if isinstance(p, WriteComplete):
                    # A foreign steered write against my OST; its index
                    # body is inbound.
                    stream.missing_foreign += 1
                elif isinstance(p, IndexBody):
                    stream.local_index.add_output(self.app, p.source_rank,
                                                  p.offset)
                    stream.missing_foreign -= 1
                elif isinstance(p, AdaptiveWriteStart):
                    if not stream.has_stealable:
                        self.busy_bounces += 1
                        self._emit_busy_instant(g, p.target_group)
                        out_coord.append(
                            WritersBusy(g, p.target_group, p.offset)
                        )
                        stream.flush_coord()
                    else:
                        w = stream.truncate_tail(p.target_group, p.offset)
                        self._emit_steal_instant(g, w, p.target_group,
                                                 p.offset)
                elif isinstance(p, OverallWriteComplete):
                    stream.owc = True
                else:  # pragma: no cover - defensive
                    raise ProtocolError(f"cohort {g}: unexpected {p!r}")
            elif kind == "steered_done":
                # A stolen member's WC arrived home: relay it (and, if
                # it completes the group, the ScComplete it unlocks) in
                # one coalesced coordinator message.
                stream.completions += 1
                out_coord.append(item[1])
                if stream.completions == stream.n_members:
                    out_coord.append(ScComplete(g, stream.final_offset))
                stream.flush_coord()
            # "poke" items wake the loop; the condition re-checks.

        pump_p.kill("cohort finished")
        if env.now < stream.last_arrival:
            yield env.timeout(stream.last_arrival - env.now)
        yield from self._sc_epilogue(g, stream.me, f, path,
                                     stream.local_index)

    def steered_proc(self, stream: _GroupStream, rank: int, target: int,
                     offset: float):
        """Index build and data movement of one steered write.

        After the steal signal's flight, the writer builds its index
        and runs a real per-writer ``fs.write`` against the target's
        file, then reports to the target's SC.
        """
        env, tracer, traced = self.env, self.tracer, self.traced
        hop, build, nbytes = self.hop, self.build, self.nbytes
        yield env.timeout(hop)  # the steal signal's flight
        node = self.machine.node_of(rank)
        if traced:
            wpid = f"node/{node}"
            wtid = rank_track(self.machine.rank_base, rank)
        t_sig = env.now
        if build:
            yield env.timeout(build)
        if traced:
            tracer.begin(
                "wait", cat="writer", pid=wpid, tid=wtid,
                ts=self.phase["open_end"],
            )
            tracer.end(
                "wait", cat="writer", pid=wpid, tid=wtid, ts=t_sig,
                args={"target_group": target, "adaptive": True},
            )
            if build:
                tracer.begin("index", cat="writer", pid=wpid, tid=wtid,
                             ts=t_sig)
                tracer.end("index", cat="writer", pid=wpid, tid=wtid)
        start = env.now
        if traced:
            tracer.begin(
                "write", cat="writer", pid=wpid, tid=wtid,
                args={"nbytes": float(nbytes), "target_group": target,
                      "offset": float(offset), "adaptive": True},
            )
        yield from self.fs.write(
            self.files[target], node=node, offset=offset, nbytes=nbytes,
            writer=rank, blocks=self.app.blocks_of(rank), tenant=self.tenant,
        )
        end = env.now
        if traced:
            tracer.end("write", cat="writer", pid=wpid, tid=wtid)
        self.timings.set(rank, start, end, nbytes, target, adaptive=True)
        wc = WriteComplete(
            source_rank=rank, source_group=stream.g, target_group=target,
            nbytes=nbytes, index_nbytes=self.index_nbytes, adaptive=True,
        )
        sc = self.sc_rank[target]
        self.comm.send(rank, sc, wc, tag=TAG_SC)
        self.comm.send(rank, sc, IndexBody(rank, target, offset),
                       tag=TAG_SC, nbytes=self.index_nbytes)
        # Our own cohort learns at +hop — the WC hop home.
        env.schedule_callback(
            hop, lambda: stream.mb.put(("steered_done", wc))
        )

    # ---------------- Writer role (hardened Algorithm 1) ------------------
    def hardened_writer_proc(self, rank: int):
        env, fs, app, policy = self.env, self.fs, self.app, self.policy
        tracer, traced, files_at = self.tracer, self.traced, self.files_at
        nbytes, build, recv = self.nbytes, self.build, self.comm.recv
        write_timeout, tenant = self.write_timeout, self.tenant
        yield self.files_ready
        g = self.group_of[rank]
        node = self.machine.node_of(rank)
        if traced:
            wpid = f"node/{node}"
            wtid = rank_track(self.machine.rank_base, rank)
        built_index = False
        while True:
            if traced:
                tracer.begin("wait", cat="writer", pid=wpid, tid=wtid)
            msg = yield recv(rank, tag=TAG_WRITER)
            p = msg.payload
            if isinstance(p, WriterRelease):
                if traced:
                    tracer.end("wait", cat="writer", pid=wpid, tid=wtid,
                               args={"released": True})
                return
            ws: WriteStart = p
            if traced:
                tracer.end("wait", cat="writer", pid=wpid, tid=wtid,
                           args={"target_group": ws.target_group,
                                 "adaptive": ws.adaptive,
                                 "epoch": ws.epoch})
            if build and not built_index:
                built_index = True
                if traced:
                    tracer.begin("index", cat="writer", pid=wpid, tid=wtid)
                yield env.timeout(build)
                if traced:
                    tracer.end("index", cat="writer", pid=wpid, tid=wtid)
            start = env.now
            attempt = 0
            failure = None
            blocks = app.blocks_of(rank)
            verify_failed_once = False
            while True:
                f = files_at[(ws.target_group, ws.epoch)]
                if traced:
                    tracer.begin(
                        "write", cat="writer", pid=wpid, tid=wtid,
                        args={"nbytes": float(nbytes),
                              "target_group": ws.target_group,
                              "offset": float(ws.offset),
                              "adaptive": ws.adaptive,
                              "epoch": ws.epoch,
                              "attempt": attempt},
                    )
                try:
                    yield from fs.write(
                        f, node=node, offset=ws.offset, nbytes=nbytes,
                        writer=rank, timeout=write_timeout, blocks=blocks,
                        tenant=tenant,
                    )
                except OstFailedError as exc:
                    if traced:
                        tracer.end("write", cat="writer", pid=wpid,
                                   tid=wtid, args={"failed": "ost_failed"})
                    # Fail-stop target: retrying the same incarnation
                    # cannot succeed.
                    failure = f"ost failed: {exc}"
                    break
                except WriteTimeout:
                    retry = "timeout"
                else:
                    # Write–verify–rewrite: read the blocks back against
                    # our own checksums before declaring victory.  A
                    # mismatch burns a retry from the same budget —
                    # persistent corruption on one target must
                    # eventually poison it (the WriteFailed path), not
                    # spin forever.
                    retry = ("verify" if policy.read_back_verify
                             and not verify_stored(
                                 f, app.data_blocks(rank, ws.offset))
                             else None)
                if retry is None:
                    if traced:
                        tracer.end("write", cat="writer", pid=wpid,
                                   tid=wtid)
                        if verify_failed_once:
                            tracer.instant(
                                "block.repair", cat="integrity",
                                pid=wpid, tid=wtid,
                                args={"target_group": ws.target_group,
                                      "epoch": ws.epoch,
                                      "offset": float(ws.offset)},
                            )
                    break
                if traced:
                    tracer.end("write", cat="writer", pid=wpid,
                               tid=wtid, args={"failed": retry})
                attempt += 1
                verb, counter, instant, cat = _RETRY_STEPS[retry]
                if attempt > policy.max_retries:
                    failure = (f"{verb} {attempt}x "
                               f"(budget {policy.max_retries} retries)")
                    break
                setattr(self, counter, getattr(self, counter) + 1)
                verify_failed_once |= retry == "verify"
                backoff = policy.backoff(attempt)
                if traced:
                    args = {"target_group": ws.target_group,
                            "epoch": ws.epoch, "attempt": attempt,
                            "backoff": backoff}
                    if retry == "verify":
                        args["offset"] = float(ws.offset)
                    tracer.instant(instant, cat=cat, pid=wpid,
                                   tid=wtid, args=args)
                yield env.timeout(backoff)
            self._report_write(rank, g, ws, start, failure)

    def _report_write(self, rank: int, g: int, ws: WriteStart,
                      start: float, failure: Optional[str]) -> None:
        """A hardened writer's outcome, addressed through the SC table:
        WriteComplete and IndexBody, or WriteFailed."""
        comm, sc_rank, sc_tag = self.comm, self.sc_rank, self.sc_tag
        target = ws.target_group
        if failure is None:
            self.timings.set(rank, start, self.env.now, self.nbytes,
                             target, ws.adaptive)
            wc = WriteComplete(
                source_rank=rank, source_group=g, target_group=target,
                nbytes=self.nbytes, index_nbytes=self.index_nbytes,
                adaptive=ws.adaptive, epoch=ws.epoch, recovery=ws.recovery,
            )
            comm.send(rank, sc_rank[g], wc, tag=sc_tag[g])
            if target != g:
                comm.send(rank, sc_rank[target], wc, tag=sc_tag[target])
            comm.send(rank, sc_rank[target],
                      IndexBody(rank, target, ws.offset, epoch=ws.epoch),
                      tag=sc_tag[target], nbytes=self.index_nbytes)
            return
        self.aborts += 1
        if self.traced:
            node = self.machine.node_of(rank)
            self.tracer.instant(
                "write.abort", cat="fault", pid=f"node/{node}",
                tid=rank_track(self.machine.rank_base, rank),
                args={"target_group": target, "epoch": ws.epoch,
                      "reason": failure},
            )
        wf = WriteFailed(
            source_rank=rank, source_group=g, target_group=target,
            nbytes=self.nbytes, epoch=ws.epoch, adaptive=ws.adaptive,
            recovery=ws.recovery, reason=failure,
        )
        comm.send(rank, sc_rank[target], wf, tag=sc_tag[target])
        if ws.adaptive and not ws.recovery and target != g:
            # Copy to our own SC, which relays it to C for steering
            # bookkeeping (writers never talk to C).
            comm.send(rank, sc_rank[g], wf, tag=sc_tag[g])

    # ---------------- Sub-coordinator role (hardened) ---------------------
    def sc_body(self, g: int, me: int, tag: int, epoch: int, path: str, f,
                burst: bool):
        sc = _ScState(self, g, me, epoch, path, f)
        comm, coord, recv = self.comm, self.coord, self.comm.recv
        member_set, member_done = sc.member_set, sc.member_done
        done_set, foreign_pending = sc.done_set, sc.foreign_pending
        if burst:
            for w in self.alive(sc.members):
                sc.signal(w, recovery=True)
        else:
            sc.waiting.extend(self.alive(sc.members))
            sc.signal_local()
        sc.maybe_sc_complete()

        while (not sc.done or sc.missing_indices > 0
               or not sc.incarnation_complete()):
            msg = yield recv(me, tag=tag)
            p = msg.payload
            if isinstance(p, WriteComplete):
                if p.target_group == g:
                    if p.epoch == sc.epoch:
                        done_set.add(p.source_rank)
                        sc.missing_indices += 1
                        if p.source_rank in member_set:
                            member_done.add(p.source_rank)
                        if p.source_group == g and not p.recovery:
                            sc.active_local -= 1
                            sc.signal_local()
                    elif sc.orphaned(p.source_rank):
                        # Landed on a torn-down incarnation and nobody
                        # is re-hosting it: take it in.
                        foreign_pending.add(p.source_rank)
                        sc.signal(p.source_rank, recovery=True)
                if p.source_group == g:
                    member_done.add(p.source_rank)
                    if p.adaptive and not p.recovery:
                        comm.send(me, coord, p, tag=TAG_COORD)
                sc.maybe_sc_complete()
            elif isinstance(p, WriteFailed):
                if p.target_group == g and p.epoch == sc.epoch:
                    try:
                        yield from sc.relocate(p.source_rank, p.reason)
                    except StripeLimitExceeded:
                        # No healthy OST left to relocate onto: the
                        # group is unrecoverable.  Keep draining
                        # messages; the run-timeout backstop ends the
                        # run with loss accounting.
                        if self.traced:
                            self.tracer.instant(
                                "SC_STRANDED", cat="fault",
                                pid="adaptive", tid=f"sc {g}",
                                args={"epoch": sc.epoch},
                            )
                elif p.target_group == g and sc.orphaned(p.source_rank):
                    foreign_pending.add(p.source_rank)
                    sc.signal(p.source_rank, recovery=True)
                if p.source_group == g and p.adaptive and not p.recovery:
                    comm.send(me, coord, p, tag=TAG_COORD)
            elif isinstance(p, IndexBody):
                if p.epoch == sc.epoch:
                    sc.local_index.add_output(self.app, p.source_rank,
                                              p.offset)
                    sc.missing_indices -= 1
                # Stale bodies are dropped: the write is being redone
                # against the current incarnation anyway.
            elif isinstance(p, AdaptiveWriteStart):
                if not sc.waiting:
                    self.busy_bounces += 1
                    self._emit_busy_instant(g, p.target_group)
                    comm.send(me, coord,
                              WritersBusy(g, p.target_group, p.offset),
                              tag=TAG_COORD)
                else:
                    w = sc.waiting.pop()
                    sc.steered_away.add(w)
                    self._emit_steal_instant(g, w, p.target_group, p.offset,
                                             epoch=p.epoch)
                    comm.send(me, w,
                              WriteStart(p.target_group, p.offset,
                                         adaptive=True, epoch=p.epoch),
                              tag=TAG_WRITER)
            elif isinstance(p, OverallWriteComplete):
                sc.done = True
            else:  # pragma: no cover - defensive
                raise ProtocolError(f"SC {g}: unexpected {p!r}")

        yield from self._sc_epilogue(g, me, sc.f, sc.path, sc.local_index)

    def hardened_sc_proc(self, g: int):
        path, f = yield from self._sc_open(g)
        yield from self.sc_body(g, self.sc_rank[g], TAG_SC, 0, path, f,
                                burst=False)

    def adopted_sc_proc(self, g: int):
        epoch = self.epoch_of[g]
        path = self._sub_file_path(g, epoch)
        f = yield from self._create_sub_file(g, epoch, path)
        if (g, 0) not in self.files_at:
            # The dead SC never even created its file: fill its seat
            # in the open barrier so writers are not stuck forever.
            self._arrive_open()
        if not self.files_ready.triggered:
            yield self.files_ready
        yield from self.sc_body(g, self.coord, TAG_ADOPTED_BASE + g, epoch,
                                path, f, burst=True)

    # ---------------- Coordinator role (Algorithm 3) ----------------------
    def set_state(self, g: int, s: str) -> None:
        state, writing = self.state, self.writing
        old = state.get(g)
        state[g] = s
        if old == s:
            return
        if old == _WRITING:
            del writing[bisect_left(writing, g)]
        elif s == _WRITING:
            insort(writing, g)
        self.n_open += (s != _COMPLETE) - (
            old is not None and old != _COMPLETE
        )

    def next_writing_sc(self, exclude: int) -> Optional[int]:
        """The round-robin pick: the first _WRITING group other than
        ``exclude`` at or after the cursor, wrapping."""
        writing = self.writing
        n = len(writing)
        i = bisect_left(writing, self.rr)
        for k in range(i, i + min(n, 2)):  # skips exclude at most once
            g = writing[k % n]
            if g != exclude:
                self.rr = (g + 1) % self.n_groups
                return g
        return None

    def try_schedule(self, target: int) -> None:
        if not self.transport.steering:
            return
        if self.in_flight.get(target):
            return
        if target in self.poisoned or self.state.get(target) != _COMPLETE:
            return
        if not self.transport._steer_target_ok(target):
            return
        g = self.next_writing_sc(exclude=target)
        if g is None:
            return
        epoch = self.target_epoch.get(target, 0)
        if self.traced:
            target_file = self.files.get(target)
            args = {
                "target_group": target,
                "target_ost": (
                    int(target_file.layout.osts[0])
                    if target_file is not None else -1
                ),
                "steer_from_group": g,
                "offset": float(self.cursor[target]),
            }
            if self.hardened:
                args["epoch"] = epoch
            self.tracer.instant(
                "ADAPTIVE_WRITE_START", cat="steer",
                pid="adaptive", tid="coordinator", args=args,
            )
        self.comm.send(
            self.coord, self.sc_rank[g],
            AdaptiveWriteStart(target, self.cursor[target], epoch=epoch),
            tag=self.sc_tag[g],
        )
        self.in_flight[target] = True
        self.outstanding += 1

    def dispatch(self, p) -> None:
        """One SC-to-C message of the write phase."""
        cursor, target_epoch = self.cursor, self.target_epoch
        if isinstance(p, WriteComplete):
            if not p.adaptive:  # pragma: no cover - defensive
                raise ProtocolError("C received non-adaptive WriteComplete")
            self.adaptive_writes += 1
            self.outstanding -= 1
            self.in_flight[p.target_group] = False
            if (p.target_group in cursor
                    and p.epoch == target_epoch.get(p.target_group, 0)):
                cursor[p.target_group] += p.nbytes
            self.try_schedule(p.target_group)
        elif isinstance(p, WriteFailed):
            self.outstanding -= 1
            self.in_flight[p.target_group] = False
            self.poisoned.add(p.target_group)
            if self.traced:
                self.tracer.instant(
                    "STEER_POISON", cat="fault", pid="adaptive",
                    tid="coordinator",
                    args={"target_group": p.target_group,
                          "reason": p.reason},
                )
            # Never reschedule onto a target that just failed; its SC
            # re-announces via ScRelocated + ScComplete.
        elif isinstance(p, ScComplete):
            self.set_state(p.source_group, _COMPLETE)
            cursor[p.source_group] = p.final_offset
            target_epoch[p.source_group] = p.epoch
            self.last_seen[p.source_group] = self.env.now
            if self.traced:
                args = {"group": p.source_group,
                        "final_offset": float(p.final_offset)}
                if self.hardened:
                    args["epoch"] = p.epoch
                self.tracer.instant(
                    "SC_COMPLETE", cat="steer",
                    pid="adaptive", tid="coordinator", args=args,
                )
            self.try_schedule(p.source_group)
        elif isinstance(p, ScRelocated):
            self.set_state(p.source_group, _WRITING)
            target_epoch[p.source_group] = p.epoch
            self.poisoned.discard(p.source_group)
            cursor.pop(p.source_group, None)
            self.last_seen[p.source_group] = self.env.now
            if self.traced:
                self.tracer.instant(
                    "SC_RELOCATED", cat="fault", pid="adaptive",
                    tid="coordinator",
                    args={"group": p.source_group, "epoch": p.epoch},
                )
        elif isinstance(p, Heartbeat):
            self.last_seen[p.source_group] = self.env.now
        elif isinstance(p, WritersBusy):
            # Guard a protocol race: the offer may have crossed the SC's
            # own ScComplete in flight — never downgrade a complete SC.
            if self.state[p.source_group] == _WRITING:
                self.set_state(p.source_group, _BUSY)
            self.outstanding -= 1
            self.in_flight[p.target_group] = False
            self.try_schedule(p.target_group)
        else:  # pragma: no cover - defensive
            raise ProtocolError(f"C: unexpected {p!r}")

    def coord_proc(self):
        env, fs, comm, coord = self.env, self.fs, self.comm, self.coord
        recv, dispatch = comm.recv, self.dispatch
        yield self.files_ready
        for g in range(self.n_groups):
            self.set_state(g, _WRITING)
            self.target_epoch[g] = 0
            self.last_seen[g] = env.now

        while not (self.n_open == 0 and self.outstanding == 0):
            msg = yield recv(coord, tag=TAG_COORD)
            p = msg.payload
            # A cohort's coalesced same-instant burst runs through
            # dispatch in send order, so steering decisions match the
            # loose-message modes.
            for q in p.payloads if isinstance(p, CoordBatch) else (p,):
                dispatch(q)

        self.overall_sent = True
        for g in range(self.n_groups):
            comm.send(coord, self.sc_rank[g], OverallWriteComplete(),
                      tag=self.sc_tag[g])
        # Gather index pieces.  The endgame tolerates protocol echo
        # (heartbeats, stale relays, late relocations): SCs finish
        # their incarnations autonomously and ScIndex is the only
        # message that advances the gather.
        received = self.sc_index_received
        while len(received) < self.n_groups:
            msg = yield recv(coord, tag=TAG_COORD)
            p = msg.payload
            if isinstance(p, ScIndex):
                if p.source_group not in received:
                    received.add(p.source_group)
                    self.global_index.add_file(p.file_path, p.entries)
            elif isinstance(p, Heartbeat):
                self.last_seen[p.source_group] = env.now
        try:
            gi_ost = self.allocate(1)[0]
        except StripeLimitExceeded:
            gi_ost = fs.allocate_osts(1)[0]
        gi_file = yield from fs.create(self.global_index_path,
                                       osts=[gi_ost])
        try:
            yield from fs.write(
                gi_file, node=self.machine.node_of(coord), offset=0,
                nbytes=self.global_index.serialized_bytes, writer=coord,
                payload=("global_index", self.global_index),
                timeout=self.write_timeout, tenant=self.tenant,
            )
        except (OstFailedError, WriteTimeout):
            self.index_failures.append(-1)
        self.files[-1] = gi_file
        self.phase["write_end"] = env.now

    # ---------------- SC liveness: heartbeats + adoption ------------------
    def heartbeat_proc(self, g: int):
        env, comm, coord = self.env, self.comm, self.coord
        me = self.sc_rank[g]  # the original rank; dies with it
        while not self.stop:
            comm.send(me, coord, Heartbeat(g, me), tag=TAG_COORD)
            yield env.timeout(self.policy.heartbeat_interval)

    def adopt(self, g: int) -> None:
        """Take a silent SC's group onto the coordinator's rank."""
        coord = self.coord
        self.adoptions += 1
        self.adopted.add(g)
        dead_rank = self.sc_rank[g]
        self.epoch_of[g] += 1
        self.sc_rank[g] = coord
        self.sc_tag[g] = TAG_ADOPTED_BASE + g
        self.set_state(g, _WRITING)
        self.target_epoch[g] = self.epoch_of[g]
        self.poisoned.discard(g)
        self.cursor.pop(g, None)
        self.last_seen[g] = self.env.now
        if self.traced:
            self.tracer.instant(
                "SC_ADOPT", cat="fault", pid="adaptive", tid="coordinator",
                args={"group": g, "epoch": self.epoch_of[g],
                      "dead_rank": dead_rank},
            )
        proc = self.env.process(self.adopted_sc_proc(g),
                                name=f"adaptive.sc.{g}.adopt")
        self.protocol_procs.append(proc)
        self.faults.register(coord, proc)
        if self.overall_sent:
            self.comm.send(coord, coord, OverallWriteComplete(),
                           tag=TAG_ADOPTED_BASE + g)

    def monitor_proc(self):
        env, policy = self.env, self.policy
        yield self.files_ready
        while not self.stop:
            yield env.timeout(policy.heartbeat_interval)
            now = env.now
            for g in range(self.n_groups):
                if g in self.adopted or g in self.sc_index_received:
                    continue
                if now - self.last_seen.get(g, now) > policy.sc_timeout:
                    self.adopt(g)

    # ---------------- Orchestration ---------------------------------------
    def _spawn(self, gen, name: str, rank: int, into: list) -> None:
        proc = self.env.process(gen, name=name)
        into.append(proc)
        if self.hardened:
            self.faults.register(rank, proc)

    def main(self):
        env, hardened, spawn = self.env, self.hardened, self._spawn
        t0 = env.now
        if hardened:
            self.faults.arm()  # plan times are relative to output start
        sc_role = self.hardened_sc_proc if hardened else self.cohort_proc
        service_procs = []  # heartbeats + monitor (hardened only)
        writer_procs = []
        for g in range(self.n_groups):
            spawn(sc_role(g), f"adaptive.sc.{g}", self.sc_rank[g],
                  self.protocol_procs)
            if hardened:
                spawn(self.heartbeat_proc(g), f"adaptive.hb.{g}",
                      self.sc_rank[g], service_procs)
        if hardened:
            for r in range(self.n_ranks):
                spawn(self.hardened_writer_proc(r), f"adaptive.w.{r}", r,
                      writer_procs)
        spawn(self.coord_proc(), "adaptive.coord", self.coord,
              self.protocol_procs)
        if hardened:
            spawn(self.monitor_proc(), "adaptive.monitor", self.coord,
                  service_procs)

        self.timed_out = yield from self.transport._join(
            self.machine,
            lambda: [p for p in self.protocol_procs if p.is_alive])
        self.stop = True
        # Heartbeat senders and the monitor park exclusively on their
        # own private timeouts; cancelling the waited event removes the
        # stale calendar entry instead of leaving a wakeup to fire into
        # a dead generator after the run.
        for p in service_procs:
            if p.is_alive:
                p.kill("protocol finished", cancel_wait=True)
        self.phase.setdefault("write_end", env.now)

        # Release the hardened writer service loops; bound the goodbye
        # so a lost release message cannot hang the run.
        lingering = [p for p in writer_procs if p.is_alive]
        for r, p in enumerate(writer_procs):
            if p.is_alive:
                self.comm.send(self.coord, r, WriterRelease(),
                               tag=TAG_WRITER)
        if lingering:
            grace = env.timeout(
                max(1.0, 4 * self.policy.heartbeat_interval))
            yield env.any_of([AllSettled(env, lingering), grace])
            for p in lingering:
                if p.is_alive:
                    p.kill("release grace expired")

        # Explicit flush of every file before close (paper's
        # measurement protocol), all in parallel.
        phase = self.phase
        phase["flush_start"] = env.now
        phase["flush_end"], phase["close_end"] = yield from (
            self.transport._flush_close(self.machine,
                                        list(self.files.values()),
                                        "concurrent", self.flush_failures))
        return t0

    def collect(self) -> OutputResult:
        n_groups, n_ranks, faults = self.n_groups, self.n_ranks, self.faults
        hardened, phase = self.hardened, self.phase
        t0 = self.done.value
        total = self.nbytes * n_ranks
        open_end = phase.get("open_end", t0)
        write_end, flush_start, flush_end, close_end = (
            phase["write_end"], phase["flush_start"],
            phase["flush_end"], phase["close_end"])
        extra = {
            "n_groups": float(n_groups),
            "busy_bounces": float(self.busy_bounces),
        }
        if hardened:
            durable_ranks: set = set()
            for g in range(n_groups):
                durable_ranks |= self.done_sets[g]
            bytes_durable = self.nbytes * len(durable_ranks)
            bytes_lost = total - bytes_durable
            # Corruption surviving in the *current* incarnations, after
            # all verify-rewrites.  Informational for adaptive (`ok` is
            # about durability; detection is the scrub's job),
            # load-bearing for the statics' error accounting.
            bytes_corrupt = 0.0
            for g in range(n_groups):
                f = self.files_at.get((g, self.epoch_of[g]))
                if f is None:
                    continue
                for blk in f.stored_blocks():
                    if blk.corrupt or blk.torn:
                        bytes_corrupt += blk.nbytes
            extra.update({
                "fault_retries": float(self.retries),
                "fault_aborts": float(self.aborts),
                "sc_relocations": float(self.relocations),
                "sc_adoptions": float(self.adoptions),
                "verify_failures": float(self.verify_failures),
                "bytes_durable": bytes_durable,
                "bytes_lost": bytes_lost,
                "bytes_corrupt": bytes_corrupt,
            })
            extra.update(faults.summary())
        result = OutputResult(
            transport=self.transport.name,
            n_writers=n_ranks,
            total_bytes=total,
            open_time=open_end - t0,
            write_time=write_end - open_end,
            flush_time=flush_end - flush_start,
            close_time=close_end - flush_end,
            per_writer=self.timings,
            files=sorted(
                self.paths_at.get((g, self.epoch_of[g]),
                                  self._sub_file_path(g, 0))
                for g in range(n_groups)
            )
            + [self.global_index_path],
            index=self.global_index,
            n_adaptive_writes=self.adaptive_writes,
            messages_sent=self.comm.messages_sent,
            coordinator_messages=self.comm.messages_by_rank.get(
                self.coord, 0),
            extra=extra,
        )
        if hardened:
            missing = n_ranks - len(durable_ranks)
            reasons = []
            if faults.crashed_ranks:
                reasons.append(f"{len(faults.crashed_ranks)} rank(s) crashed")
            if missing:
                reasons.append(f"{missing} writer(s) not durable")
            if self.flush_failures:
                reasons.append(
                    f"{len(self.flush_failures)} flush failure(s)")
            if self.index_failures:
                reasons.append(
                    f"{len(self.index_failures)} index write failure(s)")
            if (self.timed_out or missing or self.flush_failures
                    or self.index_failures):
                self.transport._raise_unclean(self.machine, result,
                                              self.timed_out, reasons)
        return self.transport._finish(self.machine, result, self.fabric_snap)
