"""Protocol-level tests of the adaptive transport (Algorithms 1-3).

These go beyond the black-box transport tests: they verify the message
protocol's invariants — index completeness under steering, offset
exactness, termination under pathological load patterns, and the
coordinator's state machine under races.
"""

import numpy as np
import pytest

from repro.apps import AppKernel, Variable
from repro.core.transports import AdaptiveTransport
from repro.machines import jaguar
from repro.units import MB


def app(mb=2.0, n_vars=2):
    per_var = int(mb * MB / 8 / n_vars)
    return AppKernel(
        "p",
        [Variable(f"v{i}", shape=(per_var,)) for i in range(n_vars)],
    )


def run_with_slow(n_ranks, n_osts, slow_osts, slow_mult=0.05, seed=0,
                  **opts):
    m = jaguar(n_osts=n_osts).build(n_ranks=n_ranks, seed=seed)
    if slow_osts:
        m.pool.set_load_multiplier(slow_mult, osts=np.array(slow_osts))
    res = AdaptiveTransport(**opts).run(m, app(), output_name="p")
    return m, res


class TestOffsetsAndIndex:
    def test_offsets_exact_under_heavy_steering(self):
        """Steered writes must land back-to-back after the target
        file's own data — no gaps, no overlaps — even when many
        writers migrate."""
        m, res = run_with_slow(48, 4, [0, 1])
        assert res.n_adaptive_writes > 0
        for path in res.files:
            if "index" in path:
                continue
            f = m.fs.lookup(path)
            data_writes = sorted(
                (w.offset, w.nbytes) for w in f.writes
                if w.nbytes == app().per_process_bytes
            )
            expected = 0.0
            for offset, nbytes in data_writes:
                assert offset == pytest.approx(expected)
                expected += nbytes

    def test_index_entries_match_write_records(self):
        """Every index entry must point at a real extent in its file."""
        m, res = run_with_slow(32, 4, [0])
        for path in res.index.files:
            f = m.fs.lookup(path)
            extents = {
                (w.offset, w.nbytes): w.writer for w in f.writes
            }
            # group entries by writer, verify containment
            for var_hits in [res.index.lookup(v) for v in
                             res.index.variables]:
                for file_path, e in var_hits:
                    if file_path != path:
                        continue
                    holder = [
                        (o, n) for (o, n) in extents
                        if o <= e.offset and e.offset + e.nbytes
                        <= o + n + 1e-6
                    ]
                    assert holder, (
                        f"{e.var} of writer {e.writer} at "
                        f"{e.offset} not inside any extent of {path}"
                    )

    def test_steered_writers_index_in_target_file(self):
        """A steered writer's index entries live in the file it
        actually wrote, not its home group's file."""
        m, res = run_with_slow(48, 4, [0])
        steered = [w for w in res.per_writer if w.adaptive]
        assert steered
        for w in steered:
            hits = [h for h in res.index.lookup("v0")
                    if h[1].writer == w.rank]
            assert len(hits) == 1
            path, entry = hits[0]
            f = m.fs.lookup(path)
            assert f.layout.osts[0] != 0 or w.target_group == 0


class TestTermination:
    def test_all_osts_slow(self):
        """Uniform slowness leaves nothing to steer toward; the
        protocol must still terminate with a complete index."""
        m, res = run_with_slow(16, 4, [0, 1, 2, 3], slow_mult=0.2)
        assert res.index.n_blocks == 32

    def test_single_group(self):
        """Degenerate case: one group, coordinator == the only SC."""
        m, res = run_with_slow(8, 1, [])
        assert res.extra["n_groups"] == 1.0
        assert res.n_adaptive_writes == 0
        assert res.index.n_blocks == 16

    def test_one_writer_per_group(self):
        """Groups of size one: every SC is its own only writer."""
        m, res = run_with_slow(4, 4, [0])
        assert res.index.n_blocks == 8

    def test_extreme_imbalance_terminates(self):
        m, res = run_with_slow(64, 8, [0], slow_mult=0.01, seed=3)
        assert res.index.n_blocks == 128
        assert res.n_adaptive_writes > 0

    def test_busy_bounce_accounting(self):
        """WRITERS_BUSY bounces are counted and bounded: at most one
        outstanding offer per free target at a time."""
        m, res = run_with_slow(32, 8, [7], seed=5)
        bounces = res.extra["busy_bounces"]
        assert bounces >= 0
        # Each bounce is one failed offer; offers never exceed
        # (groups) per completion event, so the total stays small.
        assert bounces < 8 * 32


class TestSteeringPolicy:
    def test_no_writes_to_foreign_target_before_it_completes(self):
        """A steered write may only target a group whose own writers
        have all finished (the coordinator learns final offsets from
        ScComplete)."""
        m, res = run_with_slow(48, 4, [0], seed=2)
        # Group completion time = when its last non-adaptive writer
        # to that target finished.
        own_complete = {}
        for w in res.per_writer:
            if not w.adaptive:
                own_complete[w.target_group] = max(
                    own_complete.get(w.target_group, 0.0), w.end
                )
        for w in res.per_writer:
            if w.adaptive:
                assert w.start >= own_complete[w.target_group] - 1e-9, (
                    f"steered write into group {w.target_group} began "
                    f"at {w.start}, before the group completed at "
                    f"{own_complete[w.target_group]}"
                )

    def test_one_steered_write_at_a_time_per_target(self):
        m, res = run_with_slow(64, 4, [0, 1], seed=4)
        by_target = {}
        for w in res.per_writer:
            if w.adaptive:
                by_target.setdefault(w.target_group, []).append(
                    (w.start, w.end)
                )
        for spans in by_target.values():
            spans.sort()
            for (s0, e0), (s1, _e1) in zip(spans, spans[1:]):
                assert s1 >= e0 - 1e-9

    def test_steering_spreads_over_writing_groups(self):
        """'Adaptive writing requests are spread evenly among the sub
        coordinators': with several equally-busy groups and one fast
        target, the steered writers should come from more than one
        source group."""
        m, res = run_with_slow(96, 8, [0, 1, 2, 3], slow_mult=0.15,
                               seed=6)
        sources = set()
        group_of = {}
        gm_size = 96 // 8
        for w in res.per_writer:
            if w.adaptive:
                sources.add(w.rank // gm_size)
        if len([w for w in res.per_writer if w.adaptive]) >= 3:
            assert len(sources) >= 2

    def test_message_totals_linear_in_writers(self):
        msgs = {}
        for n in (16, 64):
            m, res = run_with_slow(n, 4, [], seed=1)
            msgs[n] = res.messages_sent
        assert msgs[64] < msgs[16] * 4 * 1.5  # Theta(writers)
