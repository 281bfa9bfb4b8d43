"""The live fault injector bound to one machine build.

Turns a materialized :class:`~repro.faults.plan.FaultPlan` timeline
into simulation-calendar callbacks that drive the storage pool's fault
state, error in-flight fabric flows, kill registered rank processes,
and perturb control messages.  Everything is deterministic: the
timeline is fixed at arm time and message-loss draws come from a
dedicated RNG stream.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

from repro.faults.plan import CORRUPTION_KINDS, FaultEvent, FaultPlan
from repro.lustre.ost import OstState

if TYPE_CHECKING:  # pragma: no cover
    from repro.lustre.file import SimFile, StoredBlock
    from repro.lustre.filesystem import FileSystem
    from repro.sim.engine import Environment
    from repro.sim.process import Process

__all__ = ["FaultInjector"]

#: XOR mask applied to a stored checksum to model a bit flip in the
#: stored bytes: any flip breaks the content/checksum equality, the
#: exact mask is irrelevant.
_CKSUM_FLIP = 0xA5A5A5A5A5A5A5A5


class FaultInjector:
    """Applies a fault timeline to a live machine.

    Parameters
    ----------
    env, fs:
        The machine's environment and file system (the pool and fabric
        are reached through ``fs``).
    plan:
        The declarative plan; its stochastic part is expanded here.
    rngs:
        The machine's :class:`~repro.sim.rng.RngRegistry`; the
        ``"faults"`` stream materializes the timeline and
        ``"faults.msg"`` draws message-loss coin flips.
    n_ranks:
        Communicator size, for crash-target validation.
    """

    def __init__(
        self,
        env: "Environment",
        fs: "FileSystem",
        plan: FaultPlan,
        rngs,
        n_ranks: int,
    ):
        self.env = env
        self.fs = fs
        self.plan = plan
        self.policy = plan.policy
        self.timeline: Tuple[FaultEvent, ...] = plan.materialize(
            rngs.get("faults"), fs.pool.n_sinks, n_ranks
        )
        self._msg_rng = rngs.get("faults.msg")
        self._corrupt_rng = rngs.get("faults.corrupt")
        self.crashed_ranks: Set[int] = set()
        self.injected: List[Tuple[float, FaultEvent]] = []
        self.msg_loss_p = 0.0
        self.msg_delay_extra = 0.0
        self.messages_dropped = 0
        #: Every block mutation this injector performed, for post-run
        #: auditing (scrub detection rates are measured against stored
        #: state, not this ledger — a rewritten block is healthy again).
        self.corruption_ledger: List[Dict] = []
        self.blocks_bitflipped = 0
        self.blocks_torn = 0
        self.blocks_orphaned = 0
        self.blocks_silent = 0
        self._procs: Dict[int, List["Process"]] = {}
        self._armed = False
        if plan.silent_error_rate > 0.0:
            fs.corrupt_hook = self._silent_corrupt

    # -- lifecycle --------------------------------------------------------
    def arm(self) -> None:
        """Schedule every timeline event on the simulation calendar.

        Idempotent per injector; transports call this once the run
        starts so ``time`` in the plan is relative to output start.
        """
        if self._armed:
            return
        self._armed = True
        for ev in self.timeline:
            self.env.schedule_callback(
                ev.time, lambda _ev=ev: self._apply(_ev)
            )

    def register(self, rank: int, proc: "Process") -> None:
        """Associate a process with a rank for ``crash_rank`` faults."""
        if rank in self.crashed_ranks:
            proc.kill(f"rank {rank} already crashed")
            return
        self._procs.setdefault(rank, []).append(proc)

    # -- message perturbation (consulted by SimComm) ----------------------
    def perturb_send(self, source: int, dest: int) -> Optional[float]:
        """Extra latency for a message, or None to drop it.

        Messages from or to a crashed rank are always dropped — a dead
        process neither sends nor receives.
        """
        if source in self.crashed_ranks or dest in self.crashed_ranks:
            self.messages_dropped += 1
            return None
        if self.msg_loss_p > 0.0:
            if float(self._msg_rng.random()) < self.msg_loss_p:
                self.messages_dropped += 1
                return None
        return self.msg_delay_extra

    # -- injection --------------------------------------------------------
    def _trace(self, name: str, ev: FaultEvent) -> None:
        tr = self.env.tracer
        if tr is not None:
            tr.instant(
                name,
                cat="fault",
                pid="faults",
                tid=ev.kind,
                args={
                    "kind": ev.kind,
                    "target": ev.target,
                    "factor": float(ev.factor),
                },
            )

    def _apply(self, ev: FaultEvent) -> None:
        pool = self.fs.pool
        self.injected.append((self.env.now, ev))
        self._trace("fault.inject" if ev.kind != "ost_recover"
                    else "fault.recover", ev)
        if ev.kind == "ost_fail":
            lost = pool.fail_ost(ev.target)
            # In-flight transfers error out; waiters see OstFailedError.
            undelivered = self.fs.fabric.fail_sink(ev.target)
            tr = self.env.tracer
            if tr is not None:
                tr.instant(
                    "ost.failstop", cat="fault", pid=f"ost/{ev.target}",
                    tid="state",
                    args={"cache_lost": lost, "undelivered": undelivered},
                )
        elif ev.kind == "ost_hang":
            pool.hang_ost(ev.target)
        elif ev.kind == "ost_brownout":
            pool.brownout_ost(ev.target, ev.factor)
        elif ev.kind == "ost_recover":
            pool.recover_ost(ev.target)
        elif ev.kind == "crash_rank":
            self.crashed_ranks.add(ev.target)
            for proc in self._procs.get(ev.target, ()):  # registered roles
                if proc.is_alive:
                    proc.kill(f"rank {ev.target} crashed")
        elif ev.kind == "msg_loss":
            self.msg_loss_p = float(ev.factor)
        elif ev.kind == "msg_delay":
            self.msg_delay_extra = float(ev.factor)
        elif ev.kind in CORRUPTION_KINDS:
            self._apply_corruption(ev)
        if ev.duration is not None and ev.kind != "ost_recover":
            self.env.schedule_callback(
                ev.duration, lambda _ev=ev: self._revert(_ev)
            )

    def _revert(self, ev: FaultEvent) -> None:
        pool = self.fs.pool
        self._trace("fault.recover", ev)
        if ev.kind in ("ost_fail", "ost_hang", "ost_brownout"):
            pool.recover_ost(ev.target)
        elif ev.kind == "msg_loss":
            self.msg_loss_p = 0.0
        elif ev.kind == "msg_delay":
            self.msg_delay_extra = 0.0
        # crash_rank has no revert: dead processes stay dead.

    # -- silent corruption -------------------------------------------------
    def _ledger(self, f: "SimFile", blk: "StoredBlock", kind: str) -> None:
        self.corruption_ledger.append({
            "path": f.path,
            "offset": float(blk.offset),
            "nbytes": float(blk.nbytes),
            "writer": blk.writer,
            "kind": kind,
            "time": float(self.env.now),
        })

    def _bitflip(self, blk: "StoredBlock") -> None:
        blk.corrupt = True
        if blk.checksum is not None:
            blk.checksum ^= _CKSUM_FLIP

    def _target_blocks(self, target: int) -> List[Tuple["SimFile", "StoredBlock"]]:
        """Healthy stored blocks touching OST ``target``, newest first.

        Corruption hits recently written data — the bytes still moving
        through caches and firmware — so candidates are ordered by
        store recency.
        """
        out: List[Tuple["SimFile", "StoredBlock"]] = []
        for path in self.fs.listdir():
            f = self.fs.lookup(path)
            for blk in f.stored_blocks():
                if blk.corrupt or blk.torn:
                    continue
                if any(
                    ost == target
                    for ost, _b in f.layout.span_list(blk.offset, blk.nbytes)
                ):
                    out.append((f, blk))
        out.sort(key=lambda pair: -pair[1].seq)
        return out

    def _apply_corruption(self, ev: FaultEvent) -> None:
        """Mutate stored blocks on one OST in place.

        A fail-stopped target holds nothing corruptible — its cached
        bytes are already *lost* (PR 3 semantics), which is a stronger
        statement than corruption — so the event degenerates to a
        no-op there.  Hung/browned-out targets still hold their data
        and stay eligible.
        """
        if self.fs.pool.state[ev.target] == OstState.FAILED:
            return
        candidates = self._target_blocks(ev.target)
        if not candidates:
            return
        if ev.kind == "torn_write":
            f, blk = candidates[0]
            blk.valid_bytes = blk.nbytes * (1.0 - float(ev.factor))
            blk.corrupt = True
            self.blocks_torn += 1
            self._ledger(f, blk, "torn_write")
            return
        n = max(1, int(ev.factor))
        for f, blk in candidates[:n]:
            if ev.kind == "block_bitflip":
                self._bitflip(blk)
                self.blocks_bitflipped += 1
                self._ledger(f, blk, "block_bitflip")
            else:  # stale_index: the stored block vanishes, entry stays
                self._ledger(f, blk, "stale_index")
                del f.blocks[(blk.offset, blk.nbytes)]
                self.blocks_orphaned += 1

    def _silent_corrupt(
        self, f: "SimFile", stored: List["StoredBlock"]
    ) -> None:
        """The ``corrupt_hook``: seeded bit rot underneath every write."""
        rate = self.plan.silent_error_rate
        for blk in stored:
            if float(self._corrupt_rng.random()) < rate:
                self._bitflip(blk)
                self.blocks_silent += 1
                self._ledger(f, blk, "silent")
                tr = self.env.tracer
                if tr is not None:
                    tr.instant(
                        "fault.silent_corrupt", cat="fault", pid="faults",
                        tid="silent",
                        args={"path": f.path, "offset": float(blk.offset)},
                    )

    # -- accounting -------------------------------------------------------
    def summary(self) -> Dict[str, float]:
        return {
            "n_injected": float(len(self.injected)),
            "n_crashed_ranks": float(len(self.crashed_ranks)),
            "messages_dropped": float(self.messages_dropped),
            "bytes_lost_cache": float(self.fs.pool.bytes_lost.sum()),
            "blocks_bitflipped": float(self.blocks_bitflipped),
            "blocks_torn": float(self.blocks_torn),
            "blocks_orphaned": float(self.blocks_orphaned),
            "blocks_silent": float(self.blocks_silent),
        }
