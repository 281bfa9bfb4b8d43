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
from repro.sim.events import AllSettled
from repro.sim.process import Mailbox

if TYPE_CHECKING:  # pragma: no cover
    from repro.apps.base import AppKernel
    from repro.machines.base import Machine

__all__ = ["AdaptiveTransport"]

_WRITING, _BUSY, _COMPLETE = "writing", "busy", "complete"

#: A hardened writer's retryable failed attempt, by kind: the failure
#: text once the retry budget is spent, the stats counter a retry
#: bumps, and the retry's trace instant and category.
_RETRY_STEPS = {
    "timeout": ("timed out", "retries", "write.retry", "fault"),
    "verify": ("read-back verify failed", "verify_failures",
               "write.verify_fail", "integrity"),
}

# Boundary slack when recovering member boundaries from flow progress:
# a timer may land within float rounding of the exact byte crossing.
_BOUNDARY_TOL = 1e-3  # bytes


class _GroupStream:
    """One group's serialized member pipeline on its OST.

    The healthy protocol's cohorts drive group-local data movement
    through this helper.  Instead of one simulated process and one
    fabric flow per member write, the stream models the group's
    one-at-a-time schedule as a **single aggregate flow** whose bytes
    are the members' segments back to back.  Member boundaries are
    recovered with pure
    :meth:`~repro.net.fabric.FlowNetwork.flow_progress` queries: one
    armed calendar timer for the *next* boundary, re-armed by a rate
    watcher whenever interference changes the drain rate.
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
    :class:`~repro.core.transports.base.WriterTimings`, and finally a
    ``notify(rank, outcome)`` callback the owning cohort uses to
    account the completion messages.  Outcomes are
    ``("done", t_start, t_end, offset)`` for members written locally
    and ``("stolen", target_group, offset)`` for members steered away.
    """

    __slots__ = (
        "env", "fs", "f", "ost", "g", "src_node", "nbytes", "t_open",
        "hop", "build", "machine", "app", "timings", "tracer", "traced",
        "notify", "pending", "finished", "_done", "_seg_start", "_fid",
        "_timer", "_lanes", "_next_lane", "_lane_start", "tenant",
    )

    def __init__(
        self,
        env,
        fs,
        f,
        ost: int,
        g: int,
        src_node: int,
        members,
        nbytes: float,
        t_open: float,
        hop: float,
        build: float,
        machine,
        app,
        timings,
        notify,
        lanes: int = 1,
    ):
        self.env = env
        self.fs = fs
        self.f = f
        self.ost = ost
        self.g = g
        self.src_node = src_node
        self.nbytes = float(nbytes)
        self.t_open = t_open  # files-ready instant (T0)
        self.hop = hop  # one 64-byte control-message hop
        self.build = build  # per-writer index build time
        self.machine = machine
        self.app = app
        self.timings = timings
        tracer = env.tracer
        self.tracer = tracer
        self.traced = tracer is not None
        self.notify = notify
        self.pending = list(members)  # members writing locally, in order
        self.finished = False
        self._done = 0  # members completed (index of the one in progress)
        self._seg_start = t_open
        self._fid = None  # aggregate flow id (lanes == 1)
        self._timer = None  # armed next-boundary timer
        self._lanes = lanes
        self._next_lane = 0  # next member index to get a lane (lanes > 1)
        self._lane_start = {}
        self.tenant = getattr(machine, "tenant", -1)

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
        ev, fid = self.fs.fabric.start_flow_with_id(
            self.src_node, self.ost, total, tenant=self.tenant
        )
        self._fid = fid
        ev.add_callback(self._on_flow_done)
        self.fs.fabric.watch_flow(fid, self._on_rate_change)
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
                self.fs.fabric.adjust_flow_bytes(self._fid, -self.nbytes)
            except KeyError:  # pragma: no cover - defensive
                pass
            if (
                self._timer is not None
                and len(self.pending) - 1 <= self._done
            ):
                # The in-progress member became the last: its end is
                # now the flow's completion, not a boundary timer.
                if not self._timer.processed:
                    self._timer.cancel()
                self._timer = None
        self.notify(rank, ("stolen", target, offset))
        return rank

    @property
    def final_offset(self) -> float:
        """The sub-file's data tail: one segment per local member."""
        return len(self.pending) * self.nbytes

    # -- aggregate-flow boundary recovery (lanes == 1) ---------------------
    def _arm_next(self) -> None:
        fabric = self.fs.fabric
        while True:
            nxt = self._done + 1
            if nxt >= len(self.pending):
                self._timer = None
                return  # the flow's completion event drives the last member
            try:
                delivered, rate = fabric.flow_progress(self._fid)
            except KeyError:  # flow finished; _on_flow_done sweeps up
                self._timer = None
                return
            target = nxt * self.nbytes
            if delivered + _BOUNDARY_TOL >= target:
                self._finish_segment(self.env.now)
                continue
            if rate <= 0.0:
                self._timer = None  # starved; watcher re-arms on recovery
                return
            self._timer = self.env.schedule_callback(
                (target - delivered) / rate, self._on_timer
            )
            return

    def _on_timer(self) -> None:
        self._timer = None
        self._arm_next()

    def _on_rate_change(self, _now: float, _rate: float) -> None:
        if self.finished:
            return
        if self._timer is not None:
            if not self._timer.processed:
                self._timer.cancel()
            self._timer = None
        self._arm_next()

    def _on_flow_done(self, ev) -> None:
        if not ev.ok:  # pragma: no cover - clean path never faults
            return
        if self._timer is not None and not self._timer.processed:
            self._timer.cancel()
        self._timer = None
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
        ev = self.fs.fabric.start_flow(
            self.machine.node_of(rank), self.ost, self.nbytes,
            tenant=self.tenant,
        )
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
        offset = idx * self.nbytes
        node = self.machine.node_of(rank)
        self.fs.record_aggregated_write(
            self.f,
            node,
            offset,
            self.nbytes,
            t_start,
            t_end,
            writer=rank,
            blocks=self.app.blocks_of(rank),
        )
        if self.traced:
            tr = self.tracer
            wpid, wtid = f"node/{node}", f"rank {rank}"
            t0 = self.t_open
            tr.begin("wait", cat="writer", pid=wpid, tid=wtid, ts=t0)
            tr.end(
                "wait", cat="writer", pid=wpid, tid=wtid, ts=t0 + self.hop,
                args={"target_group": self.g, "adaptive": False},
            )
            if self.build:
                tr.begin(
                    "index", cat="writer", pid=wpid, tid=wtid,
                    ts=t0 + self.hop,
                )
                tr.end(
                    "index", cat="writer", pid=wpid, tid=wtid,
                    ts=t0 + self.hop + self.build,
                )
            tr.begin(
                "write", cat="writer", pid=wpid, tid=wtid, ts=t_start,
                args={"nbytes": float(self.nbytes), "target_group": self.g,
                      "offset": float(offset), "adaptive": False},
            )
            tr.end("write", cat="writer", pid=wpid, tid=wtid, ts=t_end)
        self.timings.set(rank, t_start, t_end, self.nbytes, self.g)
        self.notify(rank, ("done", t_start, t_end, offset))


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
        if not writers_per_target >= 1:
            raise ValueError("writers_per_target must be >= 1")
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

    # -- the run ----------------------------------------------------------
    def launch(
        self,
        machine: "Machine",
        app: "AppKernel",
        output_name: str = "output",
    ) -> TransportRun:
        """Start one adaptive output; both modes run through this body.

        The set-up, the Algorithm-3 coordinator, the sub-file
        create/``files_ready`` barrier, the SC index epilogue, the
        global-index write and the result are shared, and the run ends
        through :class:`Transport`'s join, flush/close and unclean-run
        raise.  Each mode brings only its member roles:

        * **cohort** (no fault plan): one ``cohort_proc`` per group
          drives a :class:`_GroupStream`;
        * **hardened** (``machine.faults`` set): per-rank writers and
          ``sc_body`` with timeouts, relocation and adoption.

        The hardened protocol:

        * every data write carries a timeout; a timed-out writer backs
          off (capped exponential) and retries up to the policy budget
          before abandoning with ``WriteFailed``;
        * each group's sub-file is an *incarnation* ``(group, epoch)``.
          A failure against the current epoch makes the SC relocate to
          a fresh file on a healthy OST, bump the epoch, and re-signal
          everything it was hosting in one recovery burst (after a
          failure, minimizing time-at-risk beats pacing).  Messages
          about older epochs are stale: completions/failures from
          ranks nobody is re-hosting get a recovery signal, the rest
          are dropped;
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
        """
        env = machine.env
        fs = machine.fs
        fabric_snap = self._watch_fabric(machine)
        faults = machine.faults
        hardened = faults is not None
        policy = faults.policy if hardened else None
        write_timeout = policy.write_timeout if hardened else None
        # Relocation must avoid dead targets; a healthy run keeps
        # Lustre's plain round-robin allocator.
        allocate = fs.allocate_healthy_osts if hardened else fs.allocate_osts
        n_ranks = machine.n_ranks
        tenant = getattr(machine, "tenant", -1)
        n_groups = self._n_groups(machine)
        groups = self._make_group_map(n_ranks, n_groups)
        comm = SimComm(env, n_ranks, latency=machine.spec.latency)
        comm.faults = faults
        nbytes = app.per_process_bytes
        index_nbytes = app.index_nbytes
        # Control-plane flight times the cohorts account without sending
        # the per-write messages: `hop` is one 64-byte control message,
        # `idx_hop` an index body (which can be *shorter* than a hop).
        hop = machine.spec.latency.point_to_point(64.0)
        idx_hop = machine.spec.latency.point_to_point(index_nbytes)
        build = self.index_build_time

        tracer = env.tracer
        traced = tracer is not None
        # sc_rank/sc_tag are mutable: adoption redirects a group's SC
        # endpoint, and writers resolve the address at send time.
        sc_rank = [groups.sub_coordinator_of(g) for g in range(n_groups)]
        sc_tag = [TAG_SC] * n_groups
        coord = groups.coordinator
        group_of = [0] * n_ranks
        for g in range(n_groups):
            for r in groups.ranks_in(g):
                group_of[r] = g

        files: Dict[int, object] = {}  # group -> current incarnation
        files_at: Dict[tuple, object] = {}  # (group, epoch) -> SimFile
        paths_at: Dict[tuple, str] = {}
        epoch_of = [0] * n_groups
        timings = WriterTimings(n_ranks)
        stats = {
            "adaptive_writes": 0,
            "busy_bounces": 0,
            "retries": 0,
            "aborts": 0,
            "relocations": 0,
            "adoptions": 0,
            "verify_failures": 0,
        }
        phase: Dict[str, float] = {}
        global_index = GlobalIndex()
        global_index_path = f"/{output_name}.bp.dir/index.bp"

        # Landing sets of the *current* incarnation of every group —
        # the ground truth for durability accounting after the run.
        done_sets: Dict[int, set] = {g: set() for g in range(n_groups)}
        flush_failures: List[str] = []
        index_failures: List[int] = []
        run_flags = {"timed_out": False, "stop": False}

        files_ready = env.event()
        all_created = [0]

        def alive(ranks):
            return [r for r in ranks if r not in faults.crashed_ranks]

        # -- shared steering trace instants -------------------------------
        def _emit_steal_instant(g, w, target, offset, **epoch) -> None:
            if traced:
                tracer.instant(
                    "WRITE_START", cat="steer", pid="adaptive",
                    tid=f"sc {g}",
                    args={"writer": w, "target_group": target,
                          "offset": float(offset), "adaptive": True,
                          **epoch},
                )

        def _emit_busy_instant(g, target) -> None:
            if traced:
                tracer.instant(
                    "WRITERS_BUSY", cat="steer", pid="adaptive",
                    tid=f"sc {g}", args={"target_group": target},
                )

        # -- shared sub-file create + open barrier -------------------------
        def _sub_file_path(g: int, epoch: int) -> str:
            suffix = f".e{epoch}" if epoch else ""
            return f"/{output_name}.bp.dir/{g:04d}{suffix}.bp"

        def _create_sub_file(g: int, epoch: int, path: str):
            """Create incarnation ``(g, epoch)``, make it g's current file."""
            f = yield from fs.create(path, osts=allocate(1), stripe_size=1e15)
            files[g] = f
            files_at[(g, epoch)] = f
            paths_at[(g, epoch)] = path
            return f

        def _arrive_open() -> None:
            """Take one group's seat in the all-files-created barrier."""
            all_created[0] += 1
            if all_created[0] == n_groups:
                phase["open_end"] = env.now
                files_ready.succeed()

        def _sc_open(g: int):
            path = _sub_file_path(g, 0)
            f = yield from _create_sub_file(g, 0, path)
            _arrive_open()
            yield files_ready
            return path, f

        def _sc_epilogue(g: int, me: int, f, path: str, local_index):
            """Merge/write the file index and ship it to C (all modes)."""
            entries = local_index.finalize()
            local_index.check_no_overlap()
            try:
                yield from fs.write(
                    f,
                    node=machine.node_of(me),
                    offset=f.size,
                    nbytes=local_index.serialized_bytes,
                    writer=me,
                    payload=("local_index", entries),
                    timeout=write_timeout,
                    tenant=tenant,
                )
            except (OstFailedError, WriteTimeout) as exc:
                index_failures.append(g)
                if traced:
                    tracer.instant(
                        "index.abort", cat="fault", pid="adaptive",
                        tid=f"sc {g}", args={"error": str(exc)},
                    )
            comm.send(
                me,
                coord,
                ScIndex(g, path, entries, local_index.serialized_bytes),
                tag=TAG_COORD,
                nbytes=local_index.serialized_bytes,
            )

        # ---------------- Cohort role (Algorithm 2, healthy) --------------
        # One process per *group*: it owns the stream, accounts local
        # member completions synchronously at their message-arrival
        # instants (scheduled +hop, float-identical to a real send),
        # and multiplexes everything else — real foreign messages via
        # a pump, steered-write completions, pokes — through one
        # mailbox.  Per-writer processes and per-write message rounds
        # disappear; coordinator-bound bursts coalesce into CoordBatch.
        def cohort_proc(g: int):
            me = sc_rank[g]
            path, f = yield from _sc_open(g)
            members = groups.ranks_in(g)
            n_members = len(members)
            local_index = LocalIndex(path)
            mb = Mailbox(env)
            state = {
                "completions": 0,
                "missing_foreign": 0,
                "owc": False,
                # Watermark of the folded-away local WC/IndexBody
                # arrivals; the cohort may not finalize before it.
                "last_arrival": env.now,
            }
            out_coord: List[object] = []

            def flush_coord() -> None:
                if not out_coord:
                    return
                if len(out_coord) == 1:
                    comm.send(me, coord, out_coord[0], tag=TAG_COORD)
                else:
                    comm.send(
                        me, coord, CoordBatch(tuple(out_coord)),
                        tag=TAG_COORD,
                    )
                out_coord.clear()

            def maybe_poke() -> None:
                if (
                    state["owc"]
                    and state["completions"] == n_members
                    and state["missing_foreign"] == 0
                ):
                    mb.put(("poke",))

            def local_wc_arrived() -> None:
                # Runs +hop after a local boundary: the instant a
                # WriteComplete sent by the member would reach its SC.
                state["completions"] += 1
                if state["completions"] == n_members:
                    out_coord.append(ScComplete(g, stream.final_offset))
                    flush_coord()
                maybe_poke()

            def steered_proc(rank: int, target: int, offset: float):
                """Index build and data movement of one steered write.

                After the steal signal's flight, the writer builds its
                index and runs a real per-writer ``fs.write`` against
                the target's file, then reports to the target's SC.
                """
                yield env.timeout(hop)  # the steal signal's flight
                node = machine.node_of(rank)
                wpid, wtid = f"node/{node}", f"rank {rank}"
                t_sig = env.now
                if build:
                    yield env.timeout(build)
                if traced:
                    tracer.begin(
                        "wait", cat="writer", pid=wpid, tid=wtid,
                        ts=phase["open_end"],
                    )
                    tracer.end(
                        "wait", cat="writer", pid=wpid, tid=wtid, ts=t_sig,
                        args={"target_group": target, "adaptive": True},
                    )
                    if build:
                        tracer.begin(
                            "index", cat="writer", pid=wpid, tid=wtid,
                            ts=t_sig,
                        )
                        tracer.end("index", cat="writer", pid=wpid,
                                   tid=wtid)
                start = env.now
                if traced:
                    tracer.begin(
                        "write", cat="writer", pid=wpid, tid=wtid,
                        args={"nbytes": float(nbytes),
                              "target_group": target,
                              "offset": float(offset), "adaptive": True},
                    )
                yield from fs.write(
                    files[target],
                    node=node,
                    offset=offset,
                    nbytes=nbytes,
                    writer=rank,
                    blocks=app.blocks_of(rank),
                    tenant=tenant,
                )
                end = env.now
                if traced:
                    tracer.end("write", cat="writer", pid=wpid, tid=wtid)
                timings.set(rank, start, end, nbytes, target, adaptive=True)
                wc = WriteComplete(
                    source_rank=rank,
                    source_group=g,
                    target_group=target,
                    nbytes=nbytes,
                    index_nbytes=index_nbytes,
                    adaptive=True,
                )
                comm.send(rank, sc_rank[target], wc, tag=TAG_SC)
                comm.send(
                    rank,
                    sc_rank[target],
                    IndexBody(rank, target, offset),
                    tag=TAG_SC,
                    nbytes=index_nbytes,
                )
                # Our own cohort learns at +hop — the WC hop home.
                env.schedule_callback(
                    hop, lambda: mb.put(("steered_done", wc))
                )

            def on_member(rank: int, outcome) -> None:
                if outcome[0] == "done":
                    _kind, _t_start, t_end, offset = outcome
                    state["last_arrival"] = max(
                        state["last_arrival"], t_end + hop, t_end + idx_hop
                    )
                    local_index.add_output(app, rank, offset)
                    env.schedule_callback(hop, local_wc_arrived)
                else:
                    _kind, target, offset = outcome
                    env.process(
                        steered_proc(rank, target, offset),
                        name=f"adaptive.steer.{rank}",
                    )

            stream = _GroupStream(
                env, fs, f, int(f.layout.osts[0]), g,
                src_node=machine.node_of(me),
                members=members,
                nbytes=nbytes,
                t_open=env.now,
                hop=hop,
                build=build,
                machine=machine,
                app=app,
                timings=timings,
                notify=on_member,
                lanes=self.writers_per_target,
            )
            if traced:
                # The group's write plan, announced at files-ready (T0).
                for k, w in enumerate(members):
                    tracer.instant(
                        "WRITE_START", cat="steer", pid="adaptive",
                        tid=f"sc {g}",
                        args={"writer": w, "target_group": g,
                              "offset": float(k * nbytes)},
                    )
            env.schedule_callback(hop + build, stream.begin)

            def pump():
                while True:
                    msg = yield comm.recv(me, tag=TAG_SC)
                    mb.put(("msg", msg.payload))

            pump_p = env.process(pump(), name=f"adaptive.pump.{g}")

            while not (
                state["owc"]
                and state["completions"] == n_members
                and state["missing_foreign"] == 0
            ):
                item = yield mb.get()
                kind = item[0]
                if kind == "msg":
                    p = item[1]
                    if isinstance(p, WriteComplete):
                        # A foreign steered write against my OST; its
                        # index body is inbound.
                        state["missing_foreign"] += 1
                    elif isinstance(p, IndexBody):
                        local_index.add_output(app, p.source_rank, p.offset)
                        state["missing_foreign"] -= 1
                    elif isinstance(p, AdaptiveWriteStart):
                        if not stream.has_stealable:
                            stats["busy_bounces"] += 1
                            _emit_busy_instant(g, p.target_group)
                            out_coord.append(
                                WritersBusy(g, p.target_group, p.offset)
                            )
                            flush_coord()
                        else:
                            w = stream.truncate_tail(
                                p.target_group, p.offset
                            )
                            _emit_steal_instant(
                                g, w, p.target_group, p.offset
                            )
                    elif isinstance(p, OverallWriteComplete):
                        state["owc"] = True
                    else:  # pragma: no cover - defensive
                        raise ProtocolError(f"cohort {g}: unexpected {p!r}")
                elif kind == "steered_done":
                    # A stolen member's WC arrived home: relay it (and,
                    # if it completes the group, the ScComplete it
                    # unlocks) in one coalesced coordinator message.
                    wc = item[1]
                    state["completions"] += 1
                    out_coord.append(wc)
                    if state["completions"] == n_members:
                        out_coord.append(
                            ScComplete(g, stream.final_offset)
                        )
                    flush_coord()
                # "poke" items wake the loop; the condition re-checks.

            pump_p.kill("cohort finished")
            if env.now < state["last_arrival"]:
                yield env.timeout(state["last_arrival"] - env.now)
            yield from _sc_epilogue(g, me, f, path, local_index)

        # ---------------- Writer role (hardened Algorithm 1) --------------
        def hardened_writer_proc(rank: int):
            yield files_ready
            g = group_of[rank]
            node = machine.node_of(rank)
            wpid, wtid = f"node/{node}", f"rank {rank}"
            built_index = False
            while True:
                if traced:
                    tracer.begin("wait", cat="writer", pid=wpid, tid=wtid)
                msg = yield comm.recv(rank, tag=TAG_WRITER)
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
                        tracer.begin("index", cat="writer", pid=wpid,
                                     tid=wtid)
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
                            f,
                            node=node,
                            offset=ws.offset,
                            nbytes=nbytes,
                            writer=rank,
                            timeout=write_timeout,
                            blocks=blocks,
                            tenant=tenant,
                        )
                    except OstFailedError as exc:
                        if traced:
                            tracer.end("write", cat="writer", pid=wpid,
                                       tid=wtid,
                                       args={"failed": "ost_failed"})
                        # Fail-stop target: retrying the same incarnation
                        # cannot succeed.
                        failure = f"ost failed: {exc}"
                        break
                    except WriteTimeout:
                        retry = "timeout"
                    else:
                        # Write–verify–rewrite: read the blocks back
                        # against our own checksums before declaring
                        # victory.  A mismatch burns a retry from the
                        # same budget — persistent corruption on one
                        # target must eventually poison it (the
                        # WriteFailed path below), not spin forever.
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
                    stats[counter] += 1
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
                if failure is None:
                    timings.set(rank, start, env.now, nbytes,
                                ws.target_group, ws.adaptive)
                    wc = WriteComplete(
                        source_rank=rank,
                        source_group=g,
                        target_group=ws.target_group,
                        nbytes=nbytes,
                        index_nbytes=index_nbytes,
                        adaptive=ws.adaptive,
                        epoch=ws.epoch,
                        recovery=ws.recovery,
                    )
                    comm.send(rank, sc_rank[g], wc, tag=sc_tag[g])
                    if ws.target_group != g:
                        comm.send(rank, sc_rank[ws.target_group], wc,
                                  tag=sc_tag[ws.target_group])
                    comm.send(
                        rank,
                        sc_rank[ws.target_group],
                        IndexBody(rank, ws.target_group, ws.offset,
                                  epoch=ws.epoch),
                        tag=sc_tag[ws.target_group],
                        nbytes=index_nbytes,
                    )
                else:
                    stats["aborts"] += 1
                    if traced:
                        tracer.instant(
                            "write.abort", cat="fault", pid=wpid, tid=wtid,
                            args={"target_group": ws.target_group,
                                  "epoch": ws.epoch, "reason": failure},
                        )
                    wf = WriteFailed(
                        source_rank=rank,
                        source_group=g,
                        target_group=ws.target_group,
                        nbytes=nbytes,
                        epoch=ws.epoch,
                        adaptive=ws.adaptive,
                        recovery=ws.recovery,
                        reason=failure,
                    )
                    comm.send(rank, sc_rank[ws.target_group], wf,
                              tag=sc_tag[ws.target_group])
                    if ws.adaptive and not ws.recovery and ws.target_group != g:
                        # Copy to our own SC, which relays it to C for
                        # steering bookkeeping (writers never talk to C).
                        comm.send(rank, sc_rank[g], wf, tag=sc_tag[g])

        # ---------------- Sub-coordinator role (hardened) ------------------
        def sc_body(g: int, me: int, tag: int, epoch: int, path: str, f,
                    burst: bool):
            members = groups.ranks_in(g)
            member_set = set(members)
            waiting = deque()
            cursor = 0.0
            active_local = 0
            member_done: set = set()  # members durably landed (anywhere)
            steered_away: set = set()  # members handed to adaptive steers
            done_set = done_sets[g]  # ranks landed on CURRENT incarnation
            done_set.clear()
            foreign_pending: set = set()  # foreign ranks re-hosted here
            missing_indices = 0
            done = False
            local_index = LocalIndex(path)
            sc_complete_sent = False

            def signal(w: int, recovery: bool) -> None:
                nonlocal cursor
                if traced:
                    tracer.instant(
                        "WRITE_START", cat="steer", pid="adaptive",
                        tid=f"sc {g}",
                        args={"writer": w, "target_group": g,
                              "offset": float(cursor), "epoch": epoch,
                              "recovery": recovery},
                    )
                comm.send(
                    me, w,
                    WriteStart(g, cursor, adaptive=(w not in member_set),
                               epoch=epoch, recovery=recovery),
                    tag=TAG_WRITER,
                )
                cursor += nbytes

            def signal_local() -> None:
                nonlocal active_local
                while (
                    not done
                    and waiting
                    and active_local < self.writers_per_target
                ):
                    w = waiting.popleft()
                    if w in faults.crashed_ranks:
                        continue
                    signal(w, recovery=False)
                    active_local += 1

            def incarnation_complete() -> bool:
                return member_set.issubset(
                    member_done | faults.crashed_ranks
                ) and set(alive(foreign_pending)).issubset(done_set)

            def maybe_sc_complete() -> None:
                nonlocal sc_complete_sent
                if sc_complete_sent or not incarnation_complete():
                    return
                sc_complete_sent = True
                comm.send(me, coord, ScComplete(g, cursor, epoch=epoch),
                          tag=TAG_COORD)

            def orphaned(rank: int) -> bool:
                """Is a stale reporter without a current-epoch home?"""
                return (
                    rank not in member_set
                    and rank not in foreign_pending
                    and rank not in done_set
                    and rank not in faults.crashed_ranks
                )

            def relocate(reporter: int, reason: str):
                nonlocal epoch, path, f, cursor, active_local, \
                    missing_indices, local_index, sc_complete_sent
                stats["relocations"] += 1
                epoch += 1
                epoch_of[g] = epoch
                old_done = set(done_set)
                # Members whose bytes live on another group keep their
                # completion; everything landed *here* must be redone.
                member_done.difference_update(old_done)
                # Named before the allocation, which raises when no
                # healthy OST is left: a stranded SC reports the new name.
                path = _sub_file_path(g, epoch)
                f = yield from _create_sub_file(g, epoch, path)
                if traced:
                    tracer.instant(
                        "SC_RELOCATE", cat="fault", pid="adaptive",
                        tid=f"sc {g}",
                        args={"epoch": epoch, "ost": int(f.layout.osts[0]),
                              "reason": reason},
                    )
                foreign = (old_done - member_set) | foreign_pending
                if reporter not in member_set:
                    foreign.add(reporter)
                done_set.clear()
                foreign_pending.clear()
                foreign_pending.update(alive(foreign))
                local_index = LocalIndex(path)
                missing_indices = 0
                cursor = 0.0
                active_local = 0
                waiting.clear()
                sc_complete_sent = False
                resignal = set(alive(members)) - member_done - steered_away
                for w in sorted(resignal):
                    signal(w, recovery=True)
                for w in sorted(foreign_pending):
                    signal(w, recovery=True)
                comm.send(me, coord, ScRelocated(g, epoch), tag=TAG_COORD)
                maybe_sc_complete()

            if burst:
                for w in alive(members):
                    signal(w, recovery=True)
            else:
                waiting.extend(alive(members))
                signal_local()
            maybe_sc_complete()

            while not done or missing_indices > 0 \
                    or not incarnation_complete():
                msg = yield comm.recv(me, tag=tag)
                p = msg.payload
                if isinstance(p, WriteComplete):
                    if p.target_group == g:
                        if p.epoch == epoch:
                            done_set.add(p.source_rank)
                            missing_indices += 1
                            if p.source_rank in member_set:
                                member_done.add(p.source_rank)
                            if p.source_group == g and not p.recovery:
                                active_local -= 1
                                signal_local()
                        elif orphaned(p.source_rank):
                            # Landed on a torn-down incarnation and
                            # nobody is re-hosting it: take it in.
                            foreign_pending.add(p.source_rank)
                            signal(p.source_rank, recovery=True)
                    if p.source_group == g:
                        member_done.add(p.source_rank)
                        if p.adaptive and not p.recovery:
                            comm.send(me, coord, p, tag=TAG_COORD)
                    maybe_sc_complete()
                elif isinstance(p, WriteFailed):
                    if p.target_group == g and p.epoch == epoch:
                        try:
                            yield from relocate(p.source_rank, p.reason)
                        except StripeLimitExceeded:
                            # No healthy OST left to relocate onto: the
                            # group is unrecoverable.  Keep draining
                            # messages; the run-timeout backstop ends
                            # the run with loss accounting.
                            if traced:
                                tracer.instant(
                                    "SC_STRANDED", cat="fault",
                                    pid="adaptive", tid=f"sc {g}",
                                    args={"epoch": epoch},
                                )
                    elif p.target_group == g and orphaned(p.source_rank):
                        foreign_pending.add(p.source_rank)
                        signal(p.source_rank, recovery=True)
                    if (p.source_group == g and p.adaptive
                            and not p.recovery):
                        comm.send(me, coord, p, tag=TAG_COORD)
                elif isinstance(p, IndexBody):
                    if p.epoch == epoch:
                        local_index.add_output(app, p.source_rank, p.offset)
                        missing_indices -= 1
                    # Stale bodies are dropped: the write is being
                    # redone against the current incarnation anyway.
                elif isinstance(p, AdaptiveWriteStart):
                    if not waiting:
                        stats["busy_bounces"] += 1
                        _emit_busy_instant(g, p.target_group)
                        comm.send(
                            me,
                            coord,
                            WritersBusy(g, p.target_group, p.offset),
                            tag=TAG_COORD,
                        )
                    else:
                        w = waiting.pop()
                        steered_away.add(w)
                        _emit_steal_instant(g, w, p.target_group, p.offset,
                                            epoch=p.epoch)
                        comm.send(
                            me,
                            w,
                            WriteStart(p.target_group, p.offset,
                                       adaptive=True, epoch=p.epoch),
                            tag=TAG_WRITER,
                        )
                elif isinstance(p, OverallWriteComplete):
                    done = True
                else:  # pragma: no cover - defensive
                    raise ProtocolError(f"SC {g}: unexpected {p!r}")

            yield from _sc_epilogue(g, me, f, path, local_index)

        def hardened_sc_proc(g: int):
            path, f = yield from _sc_open(g)
            yield from sc_body(g, sc_rank[g], TAG_SC, 0, path, f, burst=False)

        def adopted_sc_proc(g: int):
            epoch = epoch_of[g]
            path = _sub_file_path(g, epoch)
            f = yield from _create_sub_file(g, epoch, path)
            if (g, 0) not in files_at:
                # The dead SC never even created its file: fill its seat
                # in the open barrier so writers are not stuck forever.
                _arrive_open()
            if not files_ready.triggered:
                yield files_ready
            yield from sc_body(g, coord, TAG_ADOPTED_BASE + g, epoch, path,
                               f, burst=True)

        # ---------------- Coordinator role (Algorithm 3) -------------------
        # State is hoisted so the SC-liveness monitor (same rank) shares it.
        state: Dict[int, str] = {}
        # Kept in step with `state` by set_state: the _WRITING groups in
        # ascending order, which steering offers bisect instead of
        # scanning every group, and the number of groups not _COMPLETE.
        writing: List[int] = []
        n_open = [0]
        cursor: Dict[int, float] = {}
        in_flight: Dict[int, bool] = {}
        target_epoch: Dict[int, int] = {}
        poisoned: set = set()
        last_seen: Dict[int, float] = {}
        adopted: set = set()
        sc_index_received: set = set()
        protocol_procs: List = []  # SCs, C, then adopted SCs
        coord_flags = {"outstanding": 0, "overall_sent": False}

        def set_state(g: int, s: str) -> None:
            old = state.get(g)
            state[g] = s
            if old == s:
                return
            if old == _WRITING:
                del writing[bisect_left(writing, g)]
            elif s == _WRITING:
                insort(writing, g)
            n_open[0] += (s != _COMPLETE) - (
                old is not None and old != _COMPLETE
            )

        def coord_proc():
            yield files_ready
            for g in range(n_groups):
                set_state(g, _WRITING)
                target_epoch[g] = 0
                last_seen[g] = env.now
            rr = [0]  # round-robin cursor over writing SCs

            def next_writing_sc(exclude: int) -> Optional[int]:
                """The round-robin pick: the first _WRITING group other
                than ``exclude`` at or after the cursor, wrapping."""
                n = len(writing)
                i = bisect_left(writing, rr[0])
                for k in range(i, i + min(n, 2)):  # skips exclude at most once
                    g = writing[k % n]
                    if g != exclude:
                        rr[0] = (g + 1) % n_groups
                        return g
                return None

            def try_schedule(target: int) -> None:
                if not self.steering:
                    return
                if in_flight.get(target):
                    return
                if target in poisoned or state.get(target) != _COMPLETE:
                    return
                if not self._steer_target_ok(target):
                    return
                g = next_writing_sc(exclude=target)
                if g is None:
                    return
                epoch = target_epoch.get(target, 0)
                if traced:
                    target_file = files.get(target)
                    args = {
                        "target_group": target,
                        "target_ost": (
                            int(target_file.layout.osts[0])
                            if target_file is not None else -1
                        ),
                        "steer_from_group": g,
                        "offset": float(cursor[target]),
                    }
                    if hardened:
                        args["epoch"] = epoch
                    tracer.instant(
                        "ADAPTIVE_WRITE_START", cat="steer",
                        pid="adaptive", tid="coordinator", args=args,
                    )
                comm.send(
                    coord,
                    sc_rank[g],
                    AdaptiveWriteStart(target, cursor[target], epoch=epoch),
                    tag=sc_tag[g],
                )
                in_flight[target] = True
                coord_flags["outstanding"] += 1

            def finished() -> bool:
                return n_open[0] == 0 and coord_flags["outstanding"] == 0

            def dispatch(p) -> None:
                if isinstance(p, WriteComplete):
                    if not p.adaptive:  # pragma: no cover - defensive
                        raise ProtocolError(
                            "C received non-adaptive WriteComplete"
                        )
                    stats["adaptive_writes"] += 1
                    coord_flags["outstanding"] -= 1
                    in_flight[p.target_group] = False
                    if (p.target_group in cursor
                            and p.epoch == target_epoch.get(
                                p.target_group, 0)):
                        cursor[p.target_group] += p.nbytes
                    try_schedule(p.target_group)
                elif isinstance(p, WriteFailed):
                    coord_flags["outstanding"] -= 1
                    in_flight[p.target_group] = False
                    poisoned.add(p.target_group)
                    if traced:
                        tracer.instant(
                            "STEER_POISON", cat="fault", pid="adaptive",
                            tid="coordinator",
                            args={"target_group": p.target_group,
                                  "reason": p.reason},
                        )
                    # Never reschedule onto a target that just failed;
                    # its SC re-announces via ScRelocated + ScComplete.
                elif isinstance(p, ScComplete):
                    set_state(p.source_group, _COMPLETE)
                    cursor[p.source_group] = p.final_offset
                    target_epoch[p.source_group] = p.epoch
                    last_seen[p.source_group] = env.now
                    if traced:
                        args = {"group": p.source_group,
                                "final_offset": float(p.final_offset)}
                        if hardened:
                            args["epoch"] = p.epoch
                        tracer.instant(
                            "SC_COMPLETE", cat="steer",
                            pid="adaptive", tid="coordinator", args=args,
                        )
                    try_schedule(p.source_group)
                elif isinstance(p, ScRelocated):
                    set_state(p.source_group, _WRITING)
                    target_epoch[p.source_group] = p.epoch
                    poisoned.discard(p.source_group)
                    cursor.pop(p.source_group, None)
                    last_seen[p.source_group] = env.now
                    if traced:
                        tracer.instant(
                            "SC_RELOCATED", cat="fault", pid="adaptive",
                            tid="coordinator",
                            args={"group": p.source_group,
                                  "epoch": p.epoch},
                        )
                elif isinstance(p, Heartbeat):
                    last_seen[p.source_group] = env.now
                elif isinstance(p, WritersBusy):
                    # Guard a protocol race: the offer may have crossed
                    # the SC's own ScComplete in flight — never
                    # downgrade a complete SC.
                    if state[p.source_group] == _WRITING:
                        set_state(p.source_group, _BUSY)
                    coord_flags["outstanding"] -= 1
                    in_flight[p.target_group] = False
                    try_schedule(p.target_group)
                else:  # pragma: no cover - defensive
                    raise ProtocolError(f"C: unexpected {p!r}")

            while not finished():
                msg = yield comm.recv(coord, tag=TAG_COORD)
                p = msg.payload
                # A cohort's coalesced same-instant burst runs through
                # dispatch in send order, so steering decisions match
                # the loose-message modes.
                for q in p.payloads if isinstance(p, CoordBatch) else (p,):
                    dispatch(q)

            coord_flags["overall_sent"] = True
            for g in range(n_groups):
                comm.send(coord, sc_rank[g], OverallWriteComplete(),
                          tag=sc_tag[g])
            # Gather index pieces.  The endgame tolerates protocol echo
            # (heartbeats, stale relays, late relocations): SCs finish
            # their incarnations autonomously and ScIndex is the only
            # message that advances the gather.
            while len(sc_index_received) < n_groups:
                msg = yield comm.recv(coord, tag=TAG_COORD)
                p = msg.payload
                if isinstance(p, ScIndex):
                    if p.source_group not in sc_index_received:
                        sc_index_received.add(p.source_group)
                        global_index.add_file(p.file_path, p.entries)
                elif isinstance(p, Heartbeat):
                    last_seen[p.source_group] = env.now
            try:
                gi_ost = allocate(1)[0]
            except StripeLimitExceeded:
                gi_ost = fs.allocate_osts(1)[0]
            gi_file = yield from fs.create(global_index_path, osts=[gi_ost])
            try:
                yield from fs.write(
                    gi_file,
                    node=machine.node_of(coord),
                    offset=0,
                    nbytes=global_index.serialized_bytes,
                    writer=coord,
                    payload=("global_index", global_index),
                    timeout=write_timeout,
                    tenant=tenant,
                )
            except (OstFailedError, WriteTimeout):
                index_failures.append(-1)
            files[-1] = gi_file
            phase["write_end"] = env.now

        # ---------------- SC liveness: heartbeats + adoption ---------------
        def heartbeat_proc(g: int):
            me = sc_rank[g]  # the original rank; dies with it
            while not run_flags["stop"]:
                comm.send(me, coord, Heartbeat(g, me), tag=TAG_COORD)
                yield env.timeout(policy.heartbeat_interval)

        def adopt(g: int) -> None:
            stats["adoptions"] += 1
            adopted.add(g)
            dead_rank = sc_rank[g]
            epoch_of[g] += 1
            sc_rank[g] = coord
            sc_tag[g] = TAG_ADOPTED_BASE + g
            set_state(g, _WRITING)
            target_epoch[g] = epoch_of[g]
            poisoned.discard(g)
            cursor.pop(g, None)
            last_seen[g] = env.now
            if traced:
                tracer.instant(
                    "SC_ADOPT", cat="fault", pid="adaptive",
                    tid="coordinator",
                    args={"group": g, "epoch": epoch_of[g],
                          "dead_rank": dead_rank},
                )
            proc = env.process(adopted_sc_proc(g),
                               name=f"adaptive.sc.{g}.adopt")
            protocol_procs.append(proc)
            faults.register(coord, proc)
            if coord_flags["overall_sent"]:
                comm.send(coord, coord, OverallWriteComplete(),
                          tag=TAG_ADOPTED_BASE + g)

        def monitor_proc():
            yield files_ready
            while not run_flags["stop"]:
                yield env.timeout(policy.heartbeat_interval)
                now = env.now
                for g in range(n_groups):
                    if g in adopted or g in sc_index_received:
                        continue
                    if now - last_seen.get(g, now) > policy.sc_timeout:
                        adopt(g)

        # ---------------- Orchestration ------------------------------------
        if hardened:
            sc_role, writer_role = hardened_sc_proc, hardened_writer_proc
        else:
            sc_role, writer_role = cohort_proc, None

        def main():
            t0 = env.now
            if hardened:
                faults.arm()  # plan times are relative to output start
            service_procs = []  # heartbeats + monitor (hardened only)
            writer_procs = []

            def spawn(gen, name: str, rank: int, into: list) -> None:
                proc = env.process(gen, name=name)
                into.append(proc)
                if hardened:
                    faults.register(rank, proc)

            for g in range(n_groups):
                spawn(sc_role(g), f"adaptive.sc.{g}", sc_rank[g],
                      protocol_procs)
                if hardened:
                    spawn(heartbeat_proc(g), f"adaptive.hb.{g}", sc_rank[g],
                          service_procs)
            if writer_role is not None:
                for r in range(n_ranks):
                    spawn(writer_role(r), f"adaptive.w.{r}", r, writer_procs)
            spawn(coord_proc(), "adaptive.coord", coord, protocol_procs)
            if hardened:
                spawn(monitor_proc(), "adaptive.monitor", coord,
                      service_procs)

            run_flags["timed_out"] = yield from self._join(
                machine, lambda: [p for p in protocol_procs if p.is_alive])
            run_flags["stop"] = True
            # Heartbeat senders and the monitor park exclusively on
            # their own private timeouts; cancelling the waited event
            # removes the stale calendar entry instead of leaving a
            # wakeup to fire into a dead closure after the run.
            for p in service_procs:
                if p.is_alive:
                    p.kill("protocol finished", cancel_wait=True)
            phase.setdefault("write_end", env.now)

            # Release the hardened writer service loops; bound the
            # goodbye so a lost release message cannot hang the run.
            lingering = [p for p in writer_procs if p.is_alive]
            for r, p in enumerate(writer_procs):
                if p.is_alive:
                    comm.send(coord, r, WriterRelease(), tag=TAG_WRITER)
            if lingering:
                grace = env.timeout(max(1.0, 4 * policy.heartbeat_interval))
                yield env.any_of([AllSettled(env, lingering), grace])
                for p in lingering:
                    if p.is_alive:
                        p.kill("release grace expired")

            # Explicit flush of every file before close (paper's
            # measurement protocol), all in parallel.
            phase["flush_start"] = env.now
            phase["flush_end"], phase["close_end"] = yield from (
                self._flush_close(machine, list(files.values()),
                                  "concurrent", flush_failures))
            return t0

        done = env.process(main(), name="adaptive.main")

        def collect() -> OutputResult:
            t0 = done.value
            total = nbytes * n_ranks
            open_end = phase.get("open_end", t0)
            write_end, flush_start, flush_end, close_end = (
                phase["write_end"], phase["flush_start"],
                phase["flush_end"], phase["close_end"])
            extra = {
                "n_groups": float(n_groups),
                "busy_bounces": float(stats["busy_bounces"]),
            }
            if hardened:
                durable_ranks: set = set()
                for g in range(n_groups):
                    durable_ranks |= done_sets[g]
                bytes_durable = nbytes * len(durable_ranks)
                bytes_lost = total - bytes_durable
                # Corruption surviving in the *current* incarnations,
                # after all verify-rewrites.  Informational for adaptive
                # (`ok` is about durability; detection is the scrub's
                # job), load-bearing for the statics' error accounting.
                bytes_corrupt = 0.0
                for g in range(n_groups):
                    f = files_at.get((g, epoch_of[g]))
                    if f is None:
                        continue
                    for blk in f.stored_blocks():
                        if blk.corrupt or blk.torn:
                            bytes_corrupt += blk.nbytes
                extra.update({
                    "fault_retries": float(stats["retries"]),
                    "fault_aborts": float(stats["aborts"]),
                    "sc_relocations": float(stats["relocations"]),
                    "sc_adoptions": float(stats["adoptions"]),
                    "verify_failures": float(stats["verify_failures"]),
                    "bytes_durable": bytes_durable,
                    "bytes_lost": bytes_lost,
                    "bytes_corrupt": bytes_corrupt,
                })
                extra.update(faults.summary())
            result = OutputResult(
                transport=self.name,
                n_writers=n_ranks,
                total_bytes=total,
                open_time=open_end - t0,
                write_time=write_end - open_end,
                flush_time=flush_end - flush_start,
                close_time=close_end - flush_end,
                per_writer=timings,
                files=sorted(
                    paths_at.get((g, epoch_of[g]), _sub_file_path(g, 0))
                    for g in range(n_groups)
                )
                + [global_index_path],
                index=global_index,
                n_adaptive_writes=stats["adaptive_writes"],
                messages_sent=comm.messages_sent,
                coordinator_messages=comm.messages_by_rank.get(coord, 0),
                extra=extra,
            )
            if hardened:
                missing = n_ranks - len(durable_ranks)
                reasons = []
                if faults.crashed_ranks:
                    reasons.append(
                        f"{len(faults.crashed_ranks)} rank(s) crashed"
                    )
                if missing:
                    reasons.append(f"{missing} writer(s) not durable")
                if flush_failures:
                    reasons.append(f"{len(flush_failures)} flush failure(s)")
                if index_failures:
                    reasons.append(
                        f"{len(index_failures)} index write failure(s)"
                    )
                if (run_flags["timed_out"] or missing or flush_failures
                        or index_failures):
                    self._raise_unclean(machine, result,
                                        run_flags["timed_out"], reasons)
            return self._finish(machine, result, fabric_snap)

        return TransportRun(done=done, collect=collect)
