"""Tests for the simulated MPI communicator."""

import pytest

from repro.mpi import ANY_TAG, SimComm
from repro.net.latency import MessageLatencyModel
from repro.sim import Environment


@pytest.fixture
def env():
    return Environment()


def make_comm(env, n=4, alpha=1e-6):
    return SimComm(env, n, 0, latency=MessageLatencyModel(alpha=alpha, beta=0))


class TestPointToPoint:
    def test_send_recv_roundtrip(self, env):
        comm = make_comm(env)
        got = []

        def receiver():
            msg = yield comm.recv(1)
            got.append(msg)

        def sender():
            comm.send(0, 1, {"x": 1}, tag=5)
            if False:
                yield

        env.process(receiver())
        env.process(sender())
        env.run()
        (msg,) = got
        assert msg.payload == {"x": 1}
        assert msg.source == 0 and msg.dest == 1 and msg.tag == 5
        assert msg.delivered_at > msg.sent_at

    def test_recv_before_send(self, env):
        comm = make_comm(env)
        got = []

        def receiver():
            msg = yield comm.recv(0)
            got.append(msg.payload)

        def sender():
            yield env.timeout(5)
            comm.send(1, 0, "late")

        env.process(receiver())
        env.process(sender())
        env.run()
        assert got == ["late"]

    def test_tag_matching(self, env):
        comm = make_comm(env)
        got = []

        def receiver():
            msg = yield comm.recv(0, tag=7)
            got.append(msg.payload)

        def sender():
            comm.send(1, 0, "wrong", tag=3)
            comm.send(1, 0, "right", tag=7)
            if False:
                yield

        env.process(receiver())
        env.process(sender())
        env.run()
        assert got == ["right"]
        assert comm.inbox_size(0) == 1  # the tag-3 message still queued

    def test_inboxes_are_made_on_first_use(self, env):
        comm = make_comm(env, n=1 << 20)  # a million ranks cost nothing
        got = []

        def receiver():
            msg = yield comm.recv(7)
            got.append(msg.payload)

        def sender():
            comm.send(3, 9, "queued")
            comm.send(3, 7, "taken")
            if False:
                yield

        assert comm.inbox_size(5) == 0
        env.process(receiver())
        env.process(sender())
        env.run()
        assert got == ["taken"]
        assert comm.inbox_size(9) == 1 and comm.inbox_size(3) == 0
        assert sorted(comm._inboxes) == [7, 9]  # never the sender's

    def test_wildcards(self, env):
        comm = make_comm(env)
        got = []

        def receiver():
            for _ in range(2):
                msg = yield comm.recv(3, tag=ANY_TAG)
                got.append((msg.source, msg.tag))

        def senders():
            comm.send(0, 3, None, tag=1)
            comm.send(1, 3, None, tag=2)
            if False:
                yield

        env.process(receiver())
        env.process(senders())
        env.run()
        assert sorted(got) == [(0, 1), (1, 2)]

    def test_fifo_per_pair(self, env):
        comm = make_comm(env)
        got = []

        def receiver():
            for _ in range(3):
                msg = yield comm.recv(1)
                got.append(msg.payload)

        def sender():
            for i in range(3):
                comm.send(0, 1, i)
            if False:
                yield

        env.process(receiver())
        env.process(sender())
        env.run()
        assert got == [0, 1, 2]

    def test_latency_applied(self, env):
        comm = make_comm(env, alpha=0.5)
        times = []

        def receiver():
            yield comm.recv(1)
            times.append(env.now)

        def sender():
            comm.send(0, 1, None)
            if False:
                yield

        env.process(receiver())
        env.process(sender())
        env.run()
        assert times == [pytest.approx(0.5)]

    def test_rank_validation(self, env):
        comm = make_comm(env, n=2)
        with pytest.raises(ValueError):
            comm.send(0, 5, None)
        with pytest.raises(ValueError):
            comm.recv(9)
        with pytest.raises(ValueError):
            SimComm(env, 0, 0)

    def test_message_counters(self, env):
        comm = make_comm(env)

        def sender():
            comm.send(0, 1, None)
            comm.send(0, 2, None)
            comm.send(3, 2, None)
            if False:
                yield

        env.process(sender())
        env.run()
        assert comm.messages_sent == 3
        assert comm.messages_by_rank[0] == 2
        assert comm.messages_by_rank[3] == 1


class _DropOdd:
    """A stand-in fault hook: drops every odd-numbered send, delays the
    rest by 1 s."""

    def __init__(self):
        self.calls = 0

    def perturb_send(self, source, dest):
        self.calls += 1
        return None if self.calls % 2 == 0 else 1.0


class TestCalendarCost:
    def test_send_returns_none_and_costs_one_entry(self, env):
        comm = make_comm(env)
        before = env.events_scheduled
        assert comm.send(0, 1, "x") is None
        assert env.events_scheduled == before + 1
        env.run()
        # Delivery schedules nothing further when nobody is waiting.
        assert env.events_scheduled == before + 1
        assert comm.inbox_size(1) == 1

    def test_dropped_message_costs_no_entry(self, env):
        comm = make_comm(env)
        comm.faults = _DropOdd()
        before = env.events_scheduled
        for i in range(4):
            assert comm.send(0, 1, i) is None
        assert comm.messages_sent == 4
        assert env.events_scheduled == before + 2
        env.run()
        assert env.now == pytest.approx(1.0 + 1e-6)
        assert comm.inbox_size(1) == 2
        got = []

        def receiver():
            for _ in range(2):
                msg = yield comm.recv(1)
                got.append(msg.payload)

        env.process(receiver())
        env.run()
        assert got == [0, 2]
