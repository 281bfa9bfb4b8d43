"""Tests for the interference generators."""

import numpy as np
import pytest

from repro.interference import (
    BackgroundWriterJob,
    LoadState,
    MarkovLoadModel,
    install_production_noise,
    production_noise,
)
from repro.interference.markov import global_chain, per_ost_chain
from repro.machines import jaguar
from repro.units import MB
from tests.specs import small_xtp


class TestLoadState:
    def test_validation(self):
        with pytest.raises(ValueError):
            LoadState("x", 0.0, 0.5, 10)
        with pytest.raises(ValueError):
            LoadState("x", 0.8, 0.5, 10)
        with pytest.raises(ValueError):
            LoadState("x", 0.5, 1.5, 10)
        with pytest.raises(ValueError):
            LoadState("x", 0.5, 0.8, 0)

    def test_draw_within_band(self):
        st = LoadState("busy", 0.4, 0.7, 10)
        rng = np.random.default_rng(0)
        draws = [st.draw_multiplier(rng) for _ in range(200)]
        assert all(0.4 <= d <= 0.7 for d in draws)


class TestMarkovLoadModel:
    def test_transition_matrix_validated(self):
        states = [LoadState("a", 0.9, 1.0, 10), LoadState("b", 0.5, 0.6, 10)]
        with pytest.raises(ValueError):
            MarkovLoadModel(states, [[0.5, 0.5]])
        with pytest.raises(ValueError):
            MarkovLoadModel(states, [[0.5, 0.6], [0.5, 0.5]])
        with pytest.raises(ValueError):
            MarkovLoadModel(states, [[1.1, -0.1], [0.5, 0.5]])

    def test_stationary_sums_to_one(self):
        model = per_ost_chain()
        pi = model.stationary_distribution()
        assert pi.sum() == pytest.approx(1.0)
        assert (pi >= 0).all()

    def test_stationary_dwell_weighting(self):
        """Equal jump probabilities but unequal dwells must weight by time."""
        states = [
            LoadState("short", 0.9, 1.0, mean_dwell=1.0),
            LoadState("long", 0.5, 0.6, mean_dwell=9.0),
        ]
        model = MarkovLoadModel(states, [[0, 1], [1, 0]])
        pi = model.stationary_distribution()
        assert pi[1] == pytest.approx(0.9, abs=1e-6)

    def test_stationary_cached_once_and_draws_nothing(self):
        cold, warm = per_ost_chain(), per_ost_chain()
        pi = warm.stationary_distribution()
        assert warm.stationary_distribution() is pi
        assert (pi == warm._solve_stationary()).all()
        assert (pi == cold._solve_stationary()).all()
        # Caching changes when the vector is computed, not what a chain
        # start draws: a cold and a warm model consume the same random
        # numbers and land in the same states.
        rng_cold = np.random.default_rng(7)
        rng_warm = np.random.default_rng(7)
        states_cold = [cold.sample_stationary_state(rng_cold)
                       for _ in range(50)]
        states_warm = [warm.sample_stationary_state(rng_warm)
                       for _ in range(50)]
        assert states_cold == states_warm
        assert (rng_cold.bit_generator.state
                == rng_warm.bit_generator.state)

    def test_default_chain_mostly_quiet(self):
        pi = per_ost_chain().stationary_distribution()
        assert pi[0] > 0.5  # quiet dominates

    def test_stationary_multiplier_sampling(self):
        rng = np.random.default_rng(1)
        m = per_ost_chain().sample_stationary_multipliers(500, rng)
        assert m.shape == (500,)
        assert (m > 0).all() and (m <= 1.0).all()
        # Transience: the sample must contain both fast and slow targets.
        assert m.max() / m.min() > 2.0

    def test_run_chain_evolves(self):
        machine = jaguar(n_osts=4).build(n_ranks=4, seed=0)
        seen = []
        model = per_ost_chain()
        machine.env.process(
            model.run_chain(
                machine, seen.append, machine.rngs.get("test.chain")
            )
        )
        machine.env.run(until=2000.0)
        assert len(seen) >= 3  # several state entries over 2000 s


class TestProductionNoise:
    def test_presets_exist(self):
        for name in ("jaguar", "franklin", "xtp"):
            preset = production_noise(name)
            assert 0 <= preset.intensity <= 1

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            production_noise("bluegene")

    def test_xtp_preset_is_mild(self):
        assert production_noise("xtp").intensity < 0.2

    def test_install_frozen_sets_multipliers(self):
        m = jaguar(n_osts=16).build(n_ranks=4, seed=3)
        noise = install_production_noise(m, live=False)
        mult = noise.current_multipliers()
        assert mult.shape == (16,)
        assert np.allclose(m.pool.load_mult, mult)

    def test_install_live_evolves(self):
        m = jaguar(n_osts=4).build(n_ranks=4, seed=3)
        noise = install_production_noise(m, live=True)
        first = noise.current_multipliers().copy()
        m.env.run(until=3000.0)
        assert not np.allclose(first, noise.current_multipliers())

    def test_double_start_rejected(self):
        m = jaguar(n_osts=4).build(n_ranks=4, seed=3)
        noise = install_production_noise(m, live=True)
        with pytest.raises(RuntimeError):
            noise.start()

    def test_reproducible_across_builds(self):
        a = jaguar(n_osts=8).build(n_ranks=4, seed=11)
        b = jaguar(n_osts=8).build(n_ranks=4, seed=11)
        na = install_production_noise(a, live=False)
        nb = install_production_noise(b, live=False)
        assert np.allclose(na.current_multipliers(),
                           nb.current_multipliers())

    def test_different_seeds_differ(self):
        a = jaguar(n_osts=8).build(n_ranks=4, seed=11)
        b = jaguar(n_osts=8).build(n_ranks=4, seed=12)
        na = install_production_noise(a, live=False)
        nb = install_production_noise(b, live=False)
        assert not np.allclose(na.current_multipliers(),
                               nb.current_multipliers())


class TestBackgroundWriterJob:
    def make_machine(self):
        return small_xtp(10).build(
            n_ranks=12, seed=0, extra_service_nodes=2
        )

    def test_paper_default_shape(self):
        m = self.make_machine()
        job = BackgroundWriterJob(m, n_osts=8, writers_per_ost=3,
                                  write_size=1 * MB)
        assert job.n_writers == 24
        assert len(job.osts) == 8

    def test_writers_generate_load(self):
        m = self.make_machine()
        job = BackgroundWriterJob(
            m, n_osts=2, writers_per_ost=2, write_size=10 * MB
        )
        job.start()
        m.env.run(until=5.0)
        assert job.bytes_written > 0
        counts = m.fs.fabric.sink_stream_counts()
        assert counts[job.osts].sum() > 0

    def test_stop_ends_load(self):
        m = self.make_machine()
        job = BackgroundWriterJob(
            m, n_osts=1, writers_per_ost=1, write_size=1 * MB
        )
        job.start()
        m.env.run(until=2.0)
        job.stop()
        m.env.run()  # drains: writers exit after current write
        assert m.fs.fabric.active_flow_count == 0

    def test_needs_service_nodes(self):
        m = small_xtp(10).build(n_ranks=12, seed=0)
        with pytest.raises(ValueError):
            BackgroundWriterJob(m)

    def test_double_start_rejected(self):
        m = self.make_machine()
        job = BackgroundWriterJob(m, n_osts=1, writers_per_ost=1,
                                  write_size=1 * MB)
        job.start()
        with pytest.raises(RuntimeError):
            job.start()

    def test_validation(self):
        m = self.make_machine()
        with pytest.raises(ValueError):
            BackgroundWriterJob(m, n_osts=0)
        with pytest.raises(ValueError):
            BackgroundWriterJob(m, write_size=0)
        with pytest.raises(ValueError):
            BackgroundWriterJob(m, n_osts=99)


class TestNoisePushes:
    """Each noise update writes what changed, and the pool always holds
    the composite field afterwards."""

    N = 12

    def _run(self, until):
        m = jaguar(n_osts=self.N).build(n_ranks=4, seed=3)
        pool, fabric = m.pool, m.fs.fabric
        pushes = []  # [now, osts, sinks stale when the fabric settles]
        set_mult, on_change = pool.set_load_multiplier, pool._on_change
        noise = None

        def spy_set(mult, osts=None, ingest_mult=None):
            pushes.append([m.env.now, osts, None])
            set_mult(mult, osts=osts, ingest_mult=ingest_mult)

        def spy_change():
            pushes[-1][2] = pool._stale.nonzero()[0].tolist()
            if noise is not None:
                gamma = pool.config.ingest_noise_exponent
                per, g = noise._per_ost, noise._global
                assert np.array_equal(pool.load_mult, per * g)
                assert np.array_equal(pool.ingest_mult, per * g**gamma)
            on_change()

        pool.set_load_multiplier, pool._on_change = spy_set, spy_change
        noise = install_production_noise(m, live=True)
        installed = (len(pushes), fabric.settle_count)
        m.env.run(until=until)
        return m, pushes, installed

    def test_chain_entries_push_once(self):
        m, pushes, (n_installed, settles) = self._run(until=1e-6)
        at_zero = pushes[n_installed:]
        assert [(now, osts) for now, osts, _ in at_zero] == [(0.0, None)]
        assert m.fs.fabric.settle_count == settles + 1
        assert at_zero[0][2] == list(range(self.N))

    def test_transitions_write_what_changed(self):
        _, pushes, (n_installed, _) = self._run(until=3000.0)
        later = pushes[n_installed + 1:]
        per_ost = [p for p in later if p[1] is not None]
        glob = [p for p in later if p[1] is None]
        assert per_ost and glob
        for now, ost, stale in per_ost:
            assert now > 0.0
            assert stale == [ost]
        for now, _, stale in glob:
            assert now > 0.0
            assert stale == list(range(self.N))
