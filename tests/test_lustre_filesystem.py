"""Integration tests: FileSystem over the fabric and OST pool."""

import numpy as np
import pytest

from repro.errors import (
    FileExistsInNamespace,
    FileNotFoundInNamespace,
    FileSystemError,
    StripeLimitExceeded,
)
from repro.lustre.filesystem import FileSystem
from repro.lustre.mds import MetadataServer
from repro.lustre.ost import EfficiencyCurve, OstPool, OstPoolConfig
from repro.sim import Environment


def pool_config(stable_fraction, **kw):
    """An ``OstPoolConfig`` whose battery-backed cache share is
    *stable_fraction*: a class constant, so a subclass sets it."""
    cls = type("FlatPoolConfig", (OstPoolConfig,),
               {"stable_fraction": stable_fraction})
    return cls(**kw)


def make_fs(
    n_osts=4,
    n_nodes=2,
    nic=1000.0,
    drain=100.0,
    ingest=200.0,
    cache=0.0,
    max_stripe=160,
    stable_fraction=0.0,
    **kw,
):
    env = Environment()
    flat = EfficiencyCurve([(1, 1.0)])
    pool = OstPool(
        pool_config(
            stable_fraction,
            n_osts=n_osts,
            drain_peak=drain,
            ingest_peak=ingest,
            cache_capacity=cache,
            drain_curve=flat,
            ingest_curve=flat,
        )
    )
    fs = FileSystem(
        env,
        pool,
        np.full(n_nodes, nic),
        max_stripe_count=max_stripe,
        mds=MetadataServer(env, mean_service_time=1e-4),
        **kw,
    )
    return env, fs


def run(env, gen):
    p = env.process(gen)
    env.run()
    return p.value


class TestNamespace:
    def test_create_open_close(self):
        env, fs = make_fs()

        def scenario():
            f = yield from fs.create("/out.bp", stripe_count=2)
            assert fs.exists("/out.bp")
            g = yield from fs.open("/out.bp")
            assert g is f
            yield from fs.close(f)
            return f

        f = run(env, scenario())
        assert f.closed

    def test_create_duplicate_rejected(self):
        env, fs = make_fs()

        def scenario():
            yield from fs.create("/a")
            with pytest.raises(FileExistsInNamespace):
                yield from fs.create("/a")

        run(env, scenario())

    def test_open_missing_rejected(self):
        env, fs = make_fs()

        def scenario():
            with pytest.raises(FileNotFoundInNamespace):
                yield from fs.open("/nope")

        run(env, scenario())

    def test_unlink(self):
        env, fs = make_fs()

        def scenario():
            yield from fs.create("/a")
            fs.unlink("/a")
            assert not fs.exists("/a")
            with pytest.raises(FileNotFoundInNamespace):
                fs.unlink("/a")

        run(env, scenario())

    def test_nan_stripe_size_rejected(self):
        # Refused up front, not mid-run when a layout converts it to
        # an integer.
        with pytest.raises(ValueError, match="default_stripe_size"):
            make_fs(default_stripe_size=np.nan)

    def test_stripe_limit_enforced(self):
        env, fs = make_fs(n_osts=8, max_stripe=4)

        def scenario():
            with pytest.raises(StripeLimitExceeded):
                yield from fs.create("/wide", stripe_count=5)

        run(env, scenario())

    def test_round_robin_allocation_rotates(self):
        env, fs = make_fs(n_osts=4)

        def scenario():
            a = yield from fs.create("/a", stripe_count=2)
            b = yield from fs.create("/b", stripe_count=2)
            return a, b

        a, b = run(env, scenario())
        assert set(a.layout.osts).isdisjoint(set(b.layout.osts))

    def test_explicit_osts(self):
        env, fs = make_fs(n_osts=4)

        def scenario():
            f = yield from fs.create("/pinned", osts=[3])
            return f

        f = run(env, scenario())
        assert f.layout.osts == (3,)


class TestWritePath:
    def test_single_ost_write_duration(self):
        env, fs = make_fs(cache=0.0)  # drain-limited at 100 B/s

        def scenario():
            f = yield from fs.create("/f", osts=[0])
            rec = yield from fs.write(f, node=0, offset=0, nbytes=500.0)
            return rec

        rec = run(env, scenario())
        assert rec.duration == pytest.approx(5.0, rel=1e-6)

    def test_cache_absorbs_at_ingest_speed(self):
        env, fs = make_fs(cache=1e6)  # plenty of cache -> 200 B/s

        def scenario():
            f = yield from fs.create("/f", osts=[0])
            rec = yield from fs.write(f, node=0, offset=0, nbytes=500.0)
            return rec

        rec = run(env, scenario())
        assert rec.duration == pytest.approx(2.5, rel=1e-6)

    def test_striped_write_parallel_speedup(self):
        env, fs = make_fs(cache=0.0)

        def scenario():
            f = yield from fs.create(
                "/f", osts=[0, 1], stripe_size=250.0
            )
            rec = yield from fs.write(f, node=0, offset=0, nbytes=500.0)
            return rec

        rec = run(env, scenario())
        # 250 B to each of two 100 B/s OSTs in parallel.
        assert rec.duration == pytest.approx(2.5, rel=1e-6)

    def test_write_fanout_guard(self):
        env, fs = make_fs(n_osts=4)
        fs.max_flows_per_write = 2

        def scenario():
            f = yield from fs.create("/f", stripe_count=4, stripe_size=1.0)
            with pytest.raises(FileSystemError):
                yield from fs.write(f, node=0, offset=0, nbytes=100.0)

        run(env, scenario())

    def test_write_records_accumulate(self):
        env, fs = make_fs()

        def scenario():
            f = yield from fs.create("/f", osts=[0])
            yield from fs.write(f, node=0, offset=0, nbytes=100.0, writer=7)
            yield from fs.write(f, node=1, offset=100, nbytes=50.0, writer=8)
            return f

        f = run(env, scenario())
        assert f.bytes_written == pytest.approx(150.0)
        assert f.size == pytest.approx(150.0)
        assert [w.writer for w in f.writes] == [7, 8]

    def test_write_after_close_rejected(self):
        env, fs = make_fs()

        def scenario():
            f = yield from fs.create("/f", osts=[0])
            yield from fs.close(f)
            with pytest.raises(ValueError):
                yield from fs.write(f, node=0, offset=0, nbytes=10.0)

        run(env, scenario())

    def test_payload_round_trip(self):
        env, fs = make_fs()

        def scenario():
            f = yield from fs.create("/f", osts=[0])
            yield from fs.write(
                f, node=0, offset=0, nbytes=10.0, payload={"idx": 1}
            )
            return f

        f = run(env, scenario())
        assert f.payloads[(0, 10.0)] == {"idx": 1}

    def test_two_writers_one_ost_contend(self):
        env, fs = make_fs(cache=0.0)
        recs = {}

        def writer(fs, f, node, key):
            rec = yield from fs.write(f, node=node, offset=0, nbytes=500.0)
            recs[key] = rec

        def scenario():
            f = yield from fs.create("/f", osts=[0])
            env.process(writer(fs, f, 0, "a"))
            env.process(writer(fs, f, 1, "b"))
            if False:
                yield

        env.process(scenario())
        env.run()
        # Fair share of 100 B/s: both finish at t ~= 10 s (+MDS time).
        assert recs["a"].duration == pytest.approx(10.0, rel=1e-3)
        assert recs["b"].duration == pytest.approx(10.0, rel=1e-3)


# Two 250-byte blocks from the write's offset: (sizes, checksums).
BLOCKS = ((250.0, 250.0), (11, 22))


def _write_both_ways(osts, prepare, timeout=None):
    """One write through the generator and one through start_write /
    when_written / finish_write (finished inside the callback), each on
    a fresh file system; per path, what the caller and the file saw."""
    out = {}
    for path in ("generator", "callback"):
        env, fs = make_fs(cache=0.0)
        seen = {}

        def finish(w):
            try:
                rec = fs.finish_write(w, blocks=BLOCKS)
                seen["record"] = (rec.offset, rec.nbytes, rec.start_time,
                                  rec.end_time, rec.writer)
            except FileSystemError as exc:
                seen["error"] = (type(exc).__name__, str(exc),
                                 getattr(exc, "undelivered", None))

        def scenario(path=path):
            f = yield from fs.create("/f", osts=osts, stripe_size=250.0)
            yield from fs.write(f, node=1, offset=500.0, nbytes=500.0,
                                blocks=((500.0,), (33,)))
            prepare(fs)
            kw = dict(node=0, offset=0.0, nbytes=500.0, writer=3,
                      timeout=timeout)
            try:
                if path == "generator":
                    try:
                        w = yield from fs.write(f, blocks=BLOCKS, **kw)
                        seen["record"] = (w.offset, w.nbytes, w.start_time,
                                          w.end_time, w.writer)
                    except FileSystemError as exc:
                        seen["error"] = (type(exc).__name__, str(exc),
                                         getattr(exc, "undelivered", None))
                else:
                    w = fs.start_write(f, **kw)
                    landed = env.event()
                    fs.when_written(
                        w, lambda _ev: (finish(w), landed.succeed())
                    )
                    yield landed
            except FileSystemError as exc:  # raised up front
                seen["error"] = (type(exc).__name__, str(exc), None)
            seen["seqs"] = sorted((b.offset, b.seq)
                                  for b in f.stored_blocks())
            seen["in_flight"] = fs.fabric.active_flow_count
            seen["now"] = env.now

        run(env, scenario())
        out[path] = seen
    return out


class TestStartFinishEqualsWrite:
    """The generator write and the start/finish pair a callback drives
    are one implementation: equal records, stored-block seqs and
    failures on every path."""

    def test_healthy_write(self):
        out = _write_both_ways([0], lambda fs: None)
        assert out["generator"] == out["callback"]
        assert out["generator"]["record"][3] > out["generator"]["record"][2]
        assert [seq for _off, seq in out["generator"]["seqs"]] == [2, 3, 1]

    def test_write_to_failed_target_raises_up_front(self):
        out = _write_both_ways([0], lambda fs: fs.pool.fail_ost(0))
        assert out["generator"] == out["callback"]
        assert out["generator"]["error"][0] == "OstFailedError"
        assert [seq for _off, seq in out["generator"]["seqs"]] == [1]

    def test_two_span_timeout_withdraws_both_flows(self):
        def hang(fs):
            fs.pool.hang_ost(0)
            fs.pool.hang_ost(1)

        out = _write_both_ways([0, 1], hang, timeout=2.0)
        assert out["generator"] == out["callback"]
        name, _msg, undelivered = out["generator"]["error"]
        assert name == "WriteTimeout"
        assert undelivered == pytest.approx(500.0)
        assert out["generator"]["in_flight"] == 0  # both flows withdrawn


class TestFlush:
    def test_flush_waits_for_drain(self):
        env, fs = make_fs(cache=1e6)

        def scenario():
            f = yield from fs.create("/f", osts=[0])
            rec = yield from fs.write(f, node=0, offset=0, nbytes=1000.0)
            t_flush = yield from fs.flush(f)
            return rec, t_flush, env.now

        rec, t_flush, now = run(env, scenario())
        # Absorbed at 200 B/s in 5 s; drain runs at 100 B/s throughout,
        # so 1000 bytes are on disk at t = 10 s total.
        assert rec.duration == pytest.approx(5.0, rel=1e-3)
        assert now == pytest.approx(10.0, rel=1e-2)

    def test_flush_noop_when_on_disk(self):
        env, fs = make_fs(cache=0.0)  # no cache: write completion == disk

        def scenario():
            f = yield from fs.create("/f", osts=[0])
            yield from fs.write(f, node=0, offset=0, nbytes=100.0)
            t_flush = yield from fs.flush(f)
            return t_flush

        t_flush = run(env, scenario())
        assert t_flush == pytest.approx(0.0, abs=1e-6)

    def test_bytes_conservation_absorbed_vs_disk(self):
        env, fs = make_fs(cache=1e6)

        def scenario():
            f = yield from fs.create("/f", osts=[0, 1], stripe_size=100.0)
            yield from fs.write(f, node=0, offset=0, nbytes=1000.0)
            yield from fs.flush(f)

        run(env, scenario())
        assert fs.total_bytes_absorbed() == pytest.approx(1000.0, rel=1e-6)
        assert fs.total_bytes_on_disk() == pytest.approx(1000.0, rel=1e-3)

    def test_stable_cache_region_satisfies_flush(self):
        """fsync returns from the battery-backed cache region: with a
        stable fraction covering the dirty data, flush is immediate."""
        env, fs = make_fs(cache=1e6, stable_fraction=0.9)

        def scenario():
            f = yield from fs.create("/f", osts=[0])
            yield from fs.write(f, node=0, offset=0, nbytes=1000.0)
            t_flush = yield from fs.flush(f)
            return t_flush

        t_flush = run(env, scenario())
        assert t_flush == pytest.approx(0.0, abs=1e-6)

    def test_stable_region_partial(self):
        """Dirty data beyond the stable region must still drain."""
        env, fs = make_fs(cache=1000.0, ingest=200.0, drain=100.0,
                          stable_fraction=0.5)

        def scenario():
            f = yield from fs.create("/f", osts=[0])
            yield from fs.write(f, node=0, offset=0, nbytes=900.0)
            t_flush = yield from fs.flush(f)
            return t_flush

        t_flush = run(env, scenario())
        # 900 B absorbed in 4.5 s, 450 drained meanwhile; only
        # 900 - 500(stable) = 400 must be on disk; drained already
        # exceeds it -> immediate.  Compare against a zero-stable run.
        env2, fs2 = make_fs(cache=1000.0, ingest=200.0, drain=100.0,
                            stable_fraction=0.0)

        def scenario2():
            f = yield from fs2.create("/f", osts=[0])
            yield from fs2.write(f, node=0, offset=0, nbytes=900.0)
            t_flush = yield from fs2.flush(f)
            return t_flush

        t_strict = run(env2, scenario2())
        assert t_flush < t_strict


class TestRead:
    def test_read_takes_time(self):
        env, fs = make_fs(cache=0.0)

        def scenario():
            f = yield from fs.create("/f", osts=[0])
            yield from fs.write(f, node=0, offset=0, nbytes=500.0)
            t = yield from fs.read(f, node=1, offset=0, nbytes=200.0)
            return t

        t = run(env, scenario())
        assert t == pytest.approx(2.0, rel=0.1)  # 200 B at ~100 B/s

    def test_read_validation(self):
        env, fs = make_fs()

        def scenario():
            f = yield from fs.create("/f", osts=[0])
            with pytest.raises(ValueError):
                yield from fs.read(f, node=0, offset=-1, nbytes=10)

        run(env, scenario())
