"""The adaptive run object's roles, driven one at a time.

An ``_AdaptiveRun`` schedules nothing until ``main`` is spawned, so a
test can build one on a tiny machine, start only the roles it needs and
hand a sub-coordinator (SC) the messages its writers and the
coordinator would send.
"""

import pytest

from repro.apps import AppKernel, Variable
from repro.core.messages import (
    TAG_ADOPTED_BASE,
    TAG_SC,
    AdaptiveWriteStart,
    ScRelocated,
    WriteComplete,
    WriteFailed,
    WriteStart,
)
from repro.core.transports import AdaptiveTransport
from repro.core.transports.adaptive import (
    _BUSY,
    _COMPLETE,
    _WRITING,
    _AdaptiveRun,
)
from repro.faults import FaultPlan
from repro.machines import jaguar
from repro.units import MB
from tests.simcal import next_instant

N_RANKS, N_OSTS = 16, 4  # four groups of four ranks; rank 0 is C


def make_run(hardened: bool) -> _AdaptiveRun:
    app = AppKernel("tiny", [Variable("v", shape=(int(MB / 8),))])
    m = jaguar(n_osts=N_OSTS).build(
        n_ranks=N_RANKS, seed=0, faults=FaultPlan() if hardened else None)
    return _AdaptiveRun(AdaptiveTransport(), m, app, "out")


def open_groups(run: _AdaptiveRun) -> int:
    return sum(s != _COMPLETE for s in run.state.values())


class TestCoordinatorState:
    def test_set_state_keeps_writing_sorted_and_open_count_exact(self):
        run = make_run(hardened=False)
        for g in (2, 0, 3, 1):
            run.set_state(g, _WRITING)
        assert run.writing == [0, 1, 2, 3] and run.n_open == 4
        steps = [(1, _BUSY), (3, _COMPLETE), (1, _COMPLETE), (3, _WRITING),
                 (0, _COMPLETE), (0, _COMPLETE), (1, _WRITING), (2, _BUSY),
                 (2, _WRITING)]
        for g, s in steps:
            run.set_state(g, s)
            writing = [h for h, t in run.state.items() if t == _WRITING]
            assert run.writing == sorted(writing)
            assert run.n_open == open_groups(run)
        assert run.writing == [1, 2, 3] and run.n_open == 3

    def test_next_writing_sc_round_robins_and_skips_exclude(self):
        run = make_run(hardened=False)
        for g in range(N_OSTS):
            run.set_state(g, _WRITING)
        picks = [run.next_writing_sc(exclude=-1) for _ in range(6)]
        assert picks == [0, 1, 2, 3, 0, 1]
        assert run.next_writing_sc(exclude=2) == 3  # the cursor sat on 2
        assert run.next_writing_sc(exclude=0) == 1  # wrapped past 0
        run.set_state(1, _COMPLETE)
        run.set_state(3, _BUSY)
        assert run.writing == [0, 2]
        assert run.next_writing_sc(exclude=-1) == 2
        assert run.next_writing_sc(exclude=0) == 2
        assert run.next_writing_sc(exclude=2) == 0
        run.set_state(0, _COMPLETE)
        assert run.next_writing_sc(exclude=2) is None


class TestAdoption:
    def test_adopt_redirects_the_group_to_the_coordinator(self):
        run = make_run(hardened=True)
        g = 2
        dead = run.sc_rank[g]
        assert dead != run.coord and run.sc_tag[g] == TAG_SC
        run.adopt(g)
        assert run.sc_rank[g] == run.coord
        assert run.sc_tag[g] == TAG_ADOPTED_BASE + g
        assert run.epoch_of[g] == 1
        assert run.state[g] == _WRITING and g in run.writing
        assert run.adoptions == 1 and g in run.adopted
        assert [p.name for p in run.protocol_procs] == [
            f"adaptive.sc.{g}.adopt"]
        # Untouched groups keep their own SC.
        assert [run.sc_rank[h] for h in (0, 1, 3)] == [0, 4, 12]
        assert run.epoch_of == [0, 0, 1, 0]


class TestRelocation:
    def test_current_epoch_failure_relocates_and_resignals(self):
        """Group 1 (ranks 4-7, SC on rank 4): 4 lands here, 6 is
        stolen and lands on group 3, 7 is stolen and still writing,
        then 5's write fails against the current epoch."""
        run = make_run(hardened=True)
        env, comm, g, sc = run.env, run.comm, 1, 4
        sent = []
        send = comm.send

        def spy(source, dest, payload, **kw):
            sent.append((dest, payload))
            send(source, dest, payload, **kw)

        comm.send = spy
        for h in range(N_OSTS):
            env.process(run.hardened_sc_proc(h), name=f"adaptive.sc.{h}")
        env.run(until=run.files_ready)

        def to_sc(source, payload):
            send(source, sc, payload, tag=TAG_SC)
            env.run(until=env.now + 1.0)

        nb, inb = run.nbytes, run.index_nbytes
        to_sc(run.coord, AdaptiveWriteStart(2, 0.0))  # steals 7
        to_sc(run.coord, AdaptiveWriteStart(3, nb))  # steals 6
        to_sc(4, WriteComplete(4, g, g, nb, inb))
        to_sc(6, WriteComplete(6, g, 3, nb, inb, adaptive=True))
        starts = [(d, p) for d, p in sent if isinstance(p, WriteStart)
                  and p.target_group == g]
        assert [d for d, _ in starts] == [4, 5]  # one local writer at a time
        steals = [(d, p.target_group) for d, p in sent
                  if isinstance(p, WriteStart) and p.adaptive]
        assert steals == [(7, 2), (6, 3)]  # off the tail of the queue
        assert run.files[g].path == "/out.bp.dir/0001.bp"

        del sent[:]
        to_sc(5, WriteFailed(5, g, g, nb, epoch=0, reason="ost failed"))
        path = "/out.bp.dir/0001.e1.bp"
        assert run.paths_at[(g, 1)] == path
        assert run.files[g] is run.files_at[(g, 1)]
        assert run.fs.lookup(path) is run.files[g]
        assert run.epoch_of[g] == 1 and run.relocations == 1
        resignals = [(d, p) for d, p in sent if isinstance(p, WriteStart)]
        # 4's bytes were on the torn-down file and 5's write failed:
        # both are redone.  6 landed on group 3 and 7 is still
        # writing there, so neither is signalled again.
        assert [d for d, _ in resignals] == [4, 5]
        assert all(p.epoch == 1 and p.recovery and p.target_group == g
                   for _, p in resignals)
        assert [p.offset for _, p in resignals] == [0.0, nb]
        assert (run.coord, ScRelocated(g, 1)) in sent

    def test_stale_failure_does_not_relocate(self):
        run = make_run(hardened=True)
        env = run.env
        for h in range(N_OSTS):
            env.process(run.hardened_sc_proc(h), name=f"adaptive.sc.{h}")
        env.run(until=run.files_ready)
        run.comm.send(5, 4, WriteFailed(5, 1, 1, run.nbytes, epoch=7),
                      tag=TAG_SC)
        env.run(until=env.now + 1.0)
        assert run.relocations == 0 and (1, 1) not in run.files_at


@pytest.mark.parametrize("hardened", [False, True])
def test_constructing_a_run_schedules_nothing(hardened):
    run = make_run(hardened)
    assert next_instant(run.env) == float("inf")
    assert run.done is None
