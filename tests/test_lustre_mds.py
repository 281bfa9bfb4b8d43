"""Unit tests for the metadata server."""

import numpy as np
import pytest

from repro.lustre.mds import MetadataServer
from repro.sim import Environment


@pytest.fixture
def env():
    return Environment()


class TestMetadataServer:
    def test_single_op_takes_service_time(self, env):
        mds = MetadataServer(env, concurrency=1, mean_service_time=0.01)

        def scenario():
            wait, service = yield from mds.operation()
            return wait, service, env.now

        p = env.process(scenario())
        env.run()
        wait, service, now = p.value
        assert wait == 0.0
        assert service == pytest.approx(0.01)
        assert now == pytest.approx(0.01)

    def test_queueing_under_burst(self, env):
        mds = MetadataServer(env, concurrency=2, mean_service_time=0.01)
        waits = []

        def op():
            wait, _ = yield from mds.operation()
            waits.append(wait)

        for _ in range(6):
            env.process(op())
        env.run()
        # 6 ops over 2 servers at 10 ms: waves wait 0, 10, 20 ms.
        assert sorted(waits) == pytest.approx([0, 0, 0.01, 0.01, 0.02, 0.02])
        assert mds.ops_completed == 6
        assert mds.max_queue_length >= 4

    def test_stats_accumulate(self, env):
        mds = MetadataServer(env, concurrency=1, mean_service_time=0.005)

        def op():
            yield from mds.operation()

        for _ in range(3):
            env.process(op())
        env.run()
        assert mds.total_service_time == pytest.approx(0.015)
        assert mds.total_wait_time == pytest.approx(0 + 0.005 + 0.01)

    def test_rank_killed_while_queued_leaves_no_slot_behind(self, env):
        """A rank killed while its op waits in the queue gives its
        request back: the next release goes to the rank behind it."""
        mds = MetadataServer(env, concurrency=1, mean_service_time=1.0)
        done = {}

        def rank(r):
            yield from mds.operation("open")
            done[r] = env.now

        procs = [env.process(rank(r), name=f"rank {r}") for r in range(3)]
        env.schedule_callback(0.5, lambda: procs[1].kill("crash"))
        env.run()
        assert done == {0: 1.0, 2: 2.0}
        assert mds._server._in_use == 0
        assert mds._server.queue_length == 0

    def test_lognormal_jitter_mean(self, env):
        rng = np.random.default_rng(0)
        mds = MetadataServer(env, concurrency=1000,
                             mean_service_time=0.01, rng=rng)
        draws = [mds._draw_service_time() for _ in range(4000)]
        assert np.mean(draws) == pytest.approx(0.01, rel=0.05)
        assert np.std(draws) > 0

    def test_staggering_reduces_wait(self, env):
        """Spread-out opens see less MDS queueing than a burst —
        the premise of the paper's stagger method."""
        mds = MetadataServer(env, concurrency=1, mean_service_time=0.01)
        burst_waits, stagger_waits = [], []

        def burst_op():
            w, _ = yield from mds.operation()
            burst_waits.append(w)

        for _ in range(10):
            env.process(burst_op())
        env.run()

        env2 = Environment()
        mds2 = MetadataServer(env2, concurrency=1, mean_service_time=0.01)

        def staggered(i):
            yield env2.timeout(i * 0.02)
            w, _ = yield from mds2.operation()
            stagger_waits.append(w)

        for i in range(10):
            env2.process(staggered(i))
        env2.run()
        assert sum(stagger_waits) < sum(burst_waits)

    def test_validation(self, env):
        with pytest.raises(ValueError):
            MetadataServer(env, concurrency=0)
        with pytest.raises(ValueError):
            MetadataServer(env, mean_service_time=0)

    def test_nan_service_time_rejected(self, env):
        # Refused up front, not as an invalid delay in the first op.
        with pytest.raises(ValueError, match="mean_service_time"):
            MetadataServer(env, mean_service_time=np.nan)
