"""Tests for the history-aware adaptive transport (future-work ext)."""

import numpy as np
import pytest

from repro.apps import AppKernel, Variable
from repro.core.transports import (
    AdaptiveTransport,
    HistoryAwareAdaptiveTransport,
    PerformanceHistory,
)
from repro.core.groups import GroupMap
from repro.machines import jaguar
from repro.units import MB


def app(mb=4.0):
    return AppKernel("h", [Variable("x", shape=(int(mb * MB / 8),))])


class TestPerformanceHistory:
    def test_first_observation_replaces_prior(self):
        h = PerformanceHistory(4)
        h.observe(0, 500.0)
        assert h.estimate[0] == 500.0
        assert h.estimate[1] == PerformanceHistory.prior

    def test_ewma_update_is_asymmetric(self):
        h = PerformanceHistory(2)
        h.alpha, h.alpha_up = 0.5, 0.125
        h.observe(0, 200.0)
        h.observe(0, 100.0)  # slowdown: fast to believe
        assert h.estimate[0] == pytest.approx(150.0)
        h.observe(0, 310.0)  # recovery: slow to believe
        assert h.estimate[0] == pytest.approx(170.0)

    def test_nonpositive_observation_ignored(self):
        h = PerformanceHistory(2)
        h.observe(0, 0.0)
        assert h.observations[0] == 0

    def test_relative_speeds_mean_one(self):
        h = PerformanceHistory(3)
        h.observe(0, 100.0)
        h.observe(1, 300.0)
        h.observe(2, 200.0)
        assert h.relative_speeds().mean() == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            PerformanceHistory(0)


class TestWeightedGroupMap:
    def test_quota_partition(self):
        gm = GroupMap(10, 3, sizes=(5, 3, 2))
        assert gm.ranks_in(0) == [0, 1, 2, 3, 4]
        assert gm.ranks_in(1) == [5, 6, 7]
        assert gm.ranks_in(2) == [8, 9]
        assert gm.group_of(7) == 1
        assert gm.sub_coordinator_of(2) == 8
        assert max(gm.sizes) == 5

    def test_quota_validation(self):
        with pytest.raises(ValueError):
            GroupMap(10, 2, sizes=(5, 3))  # sums to 8
        with pytest.raises(ValueError):
            GroupMap(3, 2, sizes=(3, 0))


class TestQuotas:
    def test_uniform_before_history(self):
        t = HistoryAwareAdaptiveTransport()
        assert t.group_quotas(10, 3) == [4, 3, 3]

    def test_quotas_follow_history(self):
        t = HistoryAwareAdaptiveTransport()
        t.history = PerformanceHistory(4)
        for g, bw in enumerate([400.0, 400.0, 400.0, 50.0]):
            t.history.observe(g, bw)
        quotas = t.group_quotas(40, 4)
        assert sum(quotas) == 40
        assert quotas[3] == min(quotas)
        assert quotas[3] >= 1

    def test_skew_clamped(self):
        t = HistoryAwareAdaptiveTransport()
        t.max_skew = 2.0
        t.history = PerformanceHistory(2)
        t.history.observe(0, 1000.0)
        t.history.observe(1, 1.0)  # pathologically slow estimate
        quotas = t.group_quotas(30, 2)
        assert sum(quotas) == 30
        assert max(quotas) / min(quotas) <= 4.0 + 1e-9  # 2.0 / (1/2.0)


class TestHistoryAwareRuns:
    def test_single_step_equals_adaptive_shape(self):
        m = jaguar(n_osts=4).build(n_ranks=16, seed=0)
        t = HistoryAwareAdaptiveTransport()
        res = t.run(m, app(), output_name="h0")
        assert res.transport == "adaptive-history"
        assert res.index.n_blocks == 16
        assert res.extra["history_steps"] == 1.0

    def test_history_accumulates_across_steps(self):
        t = HistoryAwareAdaptiveTransport()
        for step in range(2):
            m = jaguar(n_osts=4).build(n_ranks=16, seed=step)
            t.run(m, app(), output_name=f"h{step}")
        assert t.steps_run == 2
        # One straggler observation per target per step.
        assert t.history.observations.sum() == 8

    def test_seeds_away_from_persistently_slow_target(self):
        t = HistoryAwareAdaptiveTransport()
        for step in range(3):
            m = jaguar(n_osts=4).build(n_ranks=32, seed=step)
            m.pool.set_load_multiplier(0.05, osts=np.array([0]))
            t.run(m, app(), output_name=f"h{step}")
        quotas = t.group_quotas(32, 4)
        assert quotas[0] == min(quotas)
        assert quotas[0] < 8  # below the uniform share

    def test_beats_vanilla_adaptive_on_stationary_slowness(self):
        def campaign(transport_factory):
            transport = transport_factory()
            times = []
            for step in range(4):
                m = jaguar(n_osts=4).build(n_ranks=32, seed=100 + step)
                m.pool.set_load_multiplier(0.05, osts=np.array([0]))
                res = transport.run(m, app(), output_name=f"c{step}")
                times.append(res.reported_time)
            return times

        vanilla = campaign(AdaptiveTransport)
        history = campaign(HistoryAwareAdaptiveTransport)
        # After warm-up, the seeded schedule should not be slower.
        assert sum(history[1:]) <= sum(vanilla[1:]) * 1.05

    def test_target_count_change_rejected(self):
        t = HistoryAwareAdaptiveTransport()
        m = jaguar(n_osts=4).build(n_ranks=16, seed=0)
        t.run(m, app(), output_name="a")
        m2 = jaguar(n_osts=8).build(n_ranks=16, seed=0)
        with pytest.raises(ValueError):
            t.run(m2, app(), output_name="b")
