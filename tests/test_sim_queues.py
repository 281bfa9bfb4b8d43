"""Unit tests for Resource."""

import pytest

from repro.sim import Environment, Resource


@pytest.fixture
def env():
    return Environment()


class TestResource:
    def test_mutual_exclusion(self, env):
        res = Resource(env, capacity=1)
        log = []

        def worker(env, label):
            req = res.request()
            yield req
            log.append((label, "in", env.now))
            yield env.timeout(5)
            log.append((label, "out", env.now))
            res.release()

        env.process(worker(env, "a"))
        env.process(worker(env, "b"))
        env.run()
        assert log == [
            ("a", "in", 0.0),
            ("a", "out", 5.0),
            ("b", "in", 5.0),
            ("b", "out", 10.0),
        ]

    def test_capacity_parallelism(self, env):
        res = Resource(env, capacity=3)
        done = []

        def worker(env, i):
            yield res.request()
            yield env.timeout(1)
            res.release()
            done.append((i, env.now))

        for i in range(6):
            env.process(worker(env, i))
        env.run()
        times = sorted(t for _, t in done)
        assert times == [1.0, 1.0, 1.0, 2.0, 2.0, 2.0]

    def test_release_without_request(self, env):
        res = Resource(env)
        with pytest.raises(RuntimeError):
            res.release()

    def test_counts(self, env):
        res = Resource(env, capacity=2)

        def holder(env):
            yield res.request()
            yield env.timeout(100)

        env.process(holder(env))
        env.process(holder(env))
        env.process(holder(env))
        env.run(until=1.0)
        assert res._in_use == 2
        assert res.queue_length == 1

    def test_invalid_capacity(self, env):
        with pytest.raises(ValueError):
            Resource(env, capacity=0)
