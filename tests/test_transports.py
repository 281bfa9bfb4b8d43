"""Integration tests: all four transports end-to-end on small machines."""

import numpy as np
import pytest

from repro.apps import AppKernel, Variable
from repro.apps.pixie3d import pixie3d
from repro.core import Adios
from repro.core.transports import (
    AdaptiveTransport,
    HistoryAwareAdaptiveTransport,
    MpiIoTransport,
    PosixTransport,
    SplitFilesTransport,
    StaggerTransport,
)
from repro.errors import ConfigurationError
from repro.machines import jaguar
from repro.session import instrumented
from repro.trace import Tracer
from repro.units import MB


def tiny_app(mb_per_proc=4.0):
    """A small app so tests run fast."""
    count = int(mb_per_proc * MB / 8)
    return AppKernel(
        "tiny",
        [
            Variable("a", shape=(count // 2,), value_range=(0.0, 1.0)),
            Variable("b", shape=(count - count // 2,), value_range=(-1, 1)),
        ],
    )


def small_machine(n_ranks=16, n_osts=4, seed=0):
    return jaguar(n_osts=n_osts).build(n_ranks=n_ranks, seed=seed)


ALL_TRANSPORTS = [
    PosixTransport(),
    MpiIoTransport(),
    AdaptiveTransport(),
    StaggerTransport(),
]


class TestAllTransportsContract:
    @pytest.mark.parametrize(
        "transport", ALL_TRANSPORTS, ids=lambda t: t.name
    )
    def test_result_contract(self, transport):
        m = small_machine()
        app = tiny_app()
        res = transport.run(m, app, output_name="t")
        assert res.transport == transport.name
        assert res.n_writers == 16
        assert res.total_bytes == pytest.approx(app.per_process_bytes * 16)
        assert res.write_time > 0
        assert res.reported_time >= res.write_time
        assert len(res.per_writer) == 16
        assert sorted(w.rank for w in res.per_writer) == list(range(16))

    @pytest.mark.parametrize(
        "transport", ALL_TRANSPORTS, ids=lambda t: t.name
    )
    def test_bytes_reach_disk(self, transport):
        m = small_machine()
        app = tiny_app()
        res = transport.run(m, app, output_name="t")
        expected = app.per_process_bytes * 16
        absorbed = m.fs.total_bytes_absorbed()
        # Index/metadata writes add a little on top of the data.
        assert absorbed >= expected * 0.999
        assert absorbed <= expected * 1.01

    @pytest.mark.parametrize(
        "transport",
        [MpiIoTransport(), AdaptiveTransport(), StaggerTransport()],
        ids=["mpiio", "adaptive", "stagger"],
    )
    def test_flush_means_durable(self, transport):
        """After flush+close, every byte is on disk or in the stable
        (battery-backed) cache region of its OST."""
        m = small_machine()
        app = tiny_app()
        transport.run(m, app, output_name="t")
        total = app.per_process_bytes * 16
        on_disk = m.fs.total_bytes_on_disk()
        in_cache = float(m.pool.cache_level.sum())
        stable = m.pool.config.stable_bytes
        assert on_disk + in_cache >= total * 0.999
        # Nothing volatile may remain: per-OST residue fits the
        # stable region.
        assert (m.pool.cache_level <= stable + 1.0).all()


FABRIC_KEYS = ("fabric_settles", "fabric_reallocs", "fabric_incremental",
               "fabric_coalesced")


@pytest.mark.parametrize("make", [
    PosixTransport, AdaptiveTransport, HistoryAwareAdaptiveTransport,
])
def test_zero_osts_used_is_an_error(make):
    """Only None selects the default target count; 0 is out of range
    and a non-integer is no target count at all."""
    with pytest.raises(ValueError, match="n_osts_used 0 out of range"):
        make(n_osts_used=0).run(small_machine(), tiny_app())
    with pytest.raises(ValueError,
                       match="n_osts_used must be an integer, got 4.5"):
        make(n_osts_used=4.5).run(small_machine(), tiny_app())


class TestOverlappingLaunches:
    """Instances are stateless: one transport launched on two machines
    before either is collected reports each run's own fabric deltas."""

    @pytest.mark.parametrize(
        "make", [MpiIoTransport, AdaptiveTransport], ids=["mpiio", "adaptive"]
    )
    def test_fabric_deltas_per_launch(self, make):
        app = tiny_app()
        solo = [
            make().run(small_machine(seed=s), app, output_name="t")
            for s in (0, 1)
        ]
        transport = make()
        machines = [small_machine(seed=s) for s in (0, 1)]
        handles = [transport.launch(m, app, output_name="t")
                   for m in machines]
        for m, h in zip(machines, handles):
            m.env.run(until=h.done)
        for res, ref in zip([h.collect() for h in handles], solo):
            for key in FABRIC_KEYS:
                assert res.extra[key] == ref.extra[key]


class TestPosixTransport:
    def test_file_per_process(self):
        m = small_machine()
        res = PosixTransport().run(m, tiny_app(), output_name="ior")
        assert len(res.files) == 16
        for path in res.files:
            f = m.fs.lookup(path)
            assert f.layout.stripe_count == 1

    def test_writers_split_evenly_across_osts(self):
        m = small_machine(n_ranks=16, n_osts=4)
        res = PosixTransport().run(m, tiny_app(), output_name="ior")
        targets = [w.target_group for w in res.per_writer]
        assert sorted(set(targets)) == [0, 1, 2, 3]
        assert all(targets.count(t) == 4 for t in set(targets))

    def test_n_osts_used_subsets_pool(self):
        m = small_machine(n_ranks=8, n_osts=4)
        res = PosixTransport(n_osts_used=2).run(m, tiny_app(),
                                                output_name="ior")
        targets = {w.target_group for w in res.per_writer}
        assert targets == {0, 1}

    def test_invalid_n_osts(self):
        m = small_machine()
        with pytest.raises(ValueError):
            PosixTransport(n_osts_used=99).run(m, tiny_app())

    def test_optional_index(self):
        m = small_machine()
        res = PosixTransport(build_index=True).run(m, tiny_app(),
                                                   output_name="x")
        assert res.index is not None
        assert res.index.n_blocks == 16 * 2

    def test_flush_option_increases_time(self):
        # Heavy enough per OST that dirty data exceeds the stable
        # cache region and the flush must wait on the disks.
        app = tiny_app(mb_per_proc=80.0)
        m1 = small_machine(n_ranks=16, n_osts=4, seed=1)
        r1 = PosixTransport().run(m1, app, output_name="a")
        m2 = small_machine(n_ranks=16, n_osts=4, seed=1)
        flushed = PosixTransport()
        flushed.flush_order = "inline"
        r2 = flushed.run(m2, app, output_name="a")
        assert r2.flush_time > 0
        assert r1.flush_time == 0


class TestMpiIoTransport:
    def test_single_shared_file(self):
        m = small_machine()
        res = MpiIoTransport().run(m, tiny_app(), output_name="out")
        assert res.files == ["/out.bp"]
        f = m.fs.lookup("/out.bp")
        assert f.layout.stripe_count == 4  # min(160, 4 OSTs)

    def test_stripe_limit_respected(self):
        m = jaguar(n_osts=672).build(n_ranks=8, seed=0)
        res = MpiIoTransport().run(m, tiny_app(), output_name="out")
        f = m.fs.lookup("/out.bp")
        assert f.layout.stripe_count == 160  # the Lustre 1.6 cap

    def test_stripe_aligned_chunks(self):
        """Each rank's chunk must land on exactly one OST."""
        m = small_machine()
        app = tiny_app()
        MpiIoTransport().run(m, app, output_name="out")
        f = m.fs.lookup("/out.bp")
        for w in f.writes:
            spans = f.layout.spans(w.offset, w.nbytes)
            assert len(spans) == 1

    def test_index_covers_all_ranks(self):
        m = small_machine()
        res = MpiIoTransport().run(m, tiny_app(), output_name="out")
        assert res.index is not None
        assert res.index.n_blocks == 16 * 2
        assert res.index.total_bytes() == res.total_bytes

    def test_explicit_stripe_count(self):
        m = small_machine()
        res = MpiIoTransport(stripe_count=2).run(m, tiny_app(),
                                                 output_name="out")
        assert res.extra["stripe_count"] == 2.0

    @pytest.mark.parametrize("bad", [2.5, -3, 0, "2"])
    def test_invalid_stripe_count_rejected_at_construction(self, bad):
        with pytest.raises(ValueError, match="stripe_count must be an "
                                             "integer >= 1"):
            MpiIoTransport(stripe_count=bad)

    @pytest.mark.parametrize("count, stripes", [
        (None, 4.0), (np.int64(2), 2.0), (99, 4.0),
    ])
    def test_stripe_count_none_numpy_and_clamped(self, count, stripes):
        res = MpiIoTransport(stripe_count=count).run(
            small_machine(), tiny_app(), output_name="out")
        assert res.extra["stripe_count"] == stripes


class TestStaticLanes:
    """A static lane is one writer process per file that plays all of
    its members: no simulation process per rank."""

    @pytest.mark.parametrize("transport, prefix", [
        (MpiIoTransport(), "mpiio."),
        (SplitFilesTransport(), "split."),
    ], ids=["mpiio", "splitfiles"])
    def test_no_per_rank_writer_process(self, transport, prefix):
        tracer = Tracer()
        with instrumented(tracer=tracer):
            m = jaguar(n_osts=16).with_overrides(max_stripe_count=4).build(
                n_ranks=64, seed=2
            )
        res = transport.run(m, tiny_app(), output_name="t")
        assert len(res.per_writer) == 64
        spawned = [e for e in tracer.events
                   if e.name == "process.spawn" and e.tid.startswith(prefix)]
        # One lane and one concurrent flush per file, plus main.
        assert len(spawned) <= 2 * len(res.files) + 1


class TestAdaptiveTransport:
    def test_one_subfile_per_group_plus_index(self):
        m = small_machine(n_ranks=16, n_osts=4)
        res = AdaptiveTransport().run(m, tiny_app(), output_name="out")
        assert len(res.files) == 5  # 4 sub-files + global index
        assert res.extra["n_groups"] == 4.0

    def test_subfiles_pinned_one_ost_each(self):
        m = small_machine(n_ranks=16, n_osts=4)
        res = AdaptiveTransport().run(m, tiny_app(), output_name="out")
        osts = []
        for path in res.files:
            f = m.fs.lookup(path)
            assert f.layout.stripe_count == 1
            if "index" not in path:
                osts.append(f.layout.osts[0])
        assert sorted(osts) == [0, 1, 2, 3]

    def test_serialization_one_writer_per_target(self):
        """At no instant may two writers write the same target's file."""
        m = small_machine(n_ranks=16, n_osts=4)
        res = AdaptiveTransport().run(m, tiny_app(), output_name="out")
        by_target = {}
        for w in res.per_writer:
            by_target.setdefault(w.target_group, []).append(
                (w.start, w.end)
            )
        for spans in by_target.values():
            spans.sort()
            for (s0, e0), (s1, _e1) in zip(spans, spans[1:]):
                assert s1 >= e0 - 1e-9

    def test_global_index_complete(self):
        m = small_machine(n_ranks=16, n_osts=4)
        app = tiny_app()
        res = AdaptiveTransport().run(m, app, output_name="out")
        assert res.index is not None
        assert res.index.n_blocks == 16 * 2
        assert res.index.total_bytes() == pytest.approx(res.total_bytes)
        # Every writer's every variable must be findable.
        for rank in range(16):
            for var in ("a", "b"):
                assert len(res.index.lookup(var, writer=rank)) == 1

    def test_index_extents_disjoint_per_file(self):
        m = small_machine(n_ranks=16, n_osts=4)
        res = AdaptiveTransport().run(m, tiny_app(), output_name="out")
        for path in res.index.files:
            entries = [e for _, hits in [] for e in hits]  # placeholder
        # Check via file write records instead: no overlapping data
        # extents within any sub-file.
        for path in res.files:
            f = m.fs.lookup(path)
            spans = sorted(
                (w.offset, w.offset + w.nbytes) for w in f.writes
            )
            for (a0, a1), (b0, _b1) in zip(spans, spans[1:]):
                assert b0 >= a1 - 1e-6

    def test_steering_happens_under_imbalance(self):
        """With one OST 10x slower, work must migrate off it."""
        m = small_machine(n_ranks=32, n_osts=4, seed=2)
        m.pool.set_load_multiplier(0.05, osts=np.array([0]))
        res = AdaptiveTransport().run(m, tiny_app(), output_name="out")
        assert res.n_adaptive_writes > 0
        migrated = [w for w in res.per_writer if w.adaptive]
        assert migrated
        # Steered writers came from group 0 (the slow target's group)
        # more often than not ... at minimum none migrated TO target 0.
        assert all(w.target_group != 0 or not w.adaptive
                   for w in res.per_writer)

    def test_no_steering_without_imbalance_needed(self):
        """steering=False must still complete and produce a full index."""
        m = small_machine(n_ranks=16, n_osts=4)
        res = AdaptiveTransport(steering=False).run(m, tiny_app(),
                                                    output_name="out")
        assert res.n_adaptive_writes == 0
        assert res.index.n_blocks == 32

    def test_steering_beats_no_steering_on_slow_ost(self):
        app = tiny_app()
        times = {}
        for steering in (True, False):
            m = small_machine(n_ranks=32, n_osts=4, seed=3)
            m.pool.set_load_multiplier(0.05, osts=np.array([0]))
            res = AdaptiveTransport(steering=steering).run(
                m, app, output_name="out"
            )
            times[steering] = res.reported_time
        assert times[True] < times[False]

    def test_coordinator_message_load_scales_with_groups(self):
        """C talks to SCs, not writers: messages at C must not grow
        when writers quadruple at fixed group count."""
        app = tiny_app(mb_per_proc=1.0)
        loads = {}
        for n_ranks in (8, 32):
            m = small_machine(n_ranks=n_ranks, n_osts=4, seed=0)
            res = AdaptiveTransport().run(m, app, output_name="out")
            loads[n_ranks] = res.coordinator_messages
        assert loads[32] <= loads[8] * 2  # far below 4x

    def test_writers_per_target_generalization(self):
        m = small_machine(n_ranks=16, n_osts=4)
        res = AdaptiveTransport(writers_per_target=2).run(
            m, tiny_app(), output_name="out"
        )
        assert res.index.n_blocks == 32

    def test_validation(self):
        with pytest.raises(ValueError):
            AdaptiveTransport(writers_per_target=0)
        with pytest.raises(ValueError, match="writers_per_target"):
            AdaptiveTransport(writers_per_target=1.5)
        m = small_machine()
        with pytest.raises(ValueError):
            AdaptiveTransport(n_osts_used=99).run(m, tiny_app())
        # Numpy integers are integers.
        res = AdaptiveTransport(
            n_osts_used=np.int64(2), writers_per_target=np.int64(2)
        ).run(small_machine(), tiny_app(), output_name="out")
        assert res.extra["n_groups"] == 2.0

    def test_more_groups_than_ranks_clamped(self):
        m = small_machine(n_ranks=2, n_osts=4)
        res = AdaptiveTransport().run(m, tiny_app(), output_name="out")
        assert res.extra["n_groups"] == 2.0


class TestStaggerTransport:
    def test_serialization_per_group(self):
        m = small_machine(n_ranks=16, n_osts=4)
        res = StaggerTransport().run(m, tiny_app(), output_name="out")
        by_target = {}
        for w in res.per_writer:
            by_target.setdefault(w.target_group, []).append(
                (w.start, w.end)
            )
        for spans in by_target.values():
            spans.sort()
            for (s0, e0), (s1, _e1) in zip(spans, spans[1:]):
                assert s1 >= e0 - 1e-9

    def test_staggered_creates(self):
        m = small_machine(n_ranks=16, n_osts=4)
        t = StaggerTransport()
        t.open_stagger = 0.1
        t.run(m, tiny_app(), output_name="out")
        creates = sorted(
            m.fs.lookup(f"/out.bp.dir/{g:04d}.bp").create_time
            for g in range(4)
        )
        gaps = np.diff(creates)
        assert (gaps > 0.05).all()

    def test_index_built(self):
        m = small_machine()
        res = StaggerTransport().run(m, tiny_app(), output_name="out")
        assert res.index.n_blocks == 32


class TestAdiosFacade:
    def test_method_selection(self):
        m = small_machine()
        io = Adios(m, method="adaptive")
        res = io.write_output(tiny_app())
        assert res.transport == "adaptive"

    def test_unknown_method(self):
        m = small_machine()
        with pytest.raises(ConfigurationError):
            Adios(m, method="quantum")

    def test_output_names_auto_increment(self):
        m = small_machine(n_ranks=4, n_osts=4)
        io = Adios(m, method="posix")
        io.write_output(tiny_app(mb_per_proc=0.5))
        io.write_output(tiny_app(mb_per_proc=0.5))
        names = m.fs.listdir()
        assert any("00000" in n for n in names)
        assert any("00001" in n for n in names)

    def test_available_methods(self):
        assert Adios.available_methods() == [
            "adaptive", "adaptive-history", "mpiio", "posix",
            "splitfiles", "stagger",
        ]


class TestAdaptiveVsMpiioHeadline:
    """The paper's headline: adaptive wins once writers >> OSTs."""

    def test_adaptive_faster_with_many_writers_per_ost(self):
        app = tiny_app(mb_per_proc=8.0)
        m1 = jaguar(n_osts=8).build(n_ranks=64, seed=5)
        # Lustre cap forces MPI-IO to 2 OSTs on this toy pool when the
        # cap is set low, mirroring 160-of-672.
        m1.fs.max_stripe_count = 2
        r_mpi = MpiIoTransport().run(m1, app, output_name="out")

        m2 = jaguar(n_osts=8).build(n_ranks=64, seed=5)
        r_ad = AdaptiveTransport().run(m2, app, output_name="out")
        assert r_ad.aggregate_bandwidth > r_mpi.aggregate_bandwidth
