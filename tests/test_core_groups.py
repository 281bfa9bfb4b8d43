"""Unit + property tests for writer-group assignment."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.groups import GroupMap


class TestGroupMapBasics:
    def test_even_partition(self):
        gm = GroupMap(n_ranks=12, n_groups=3)
        assert gm.ranks_in(0) == [0, 1, 2, 3]
        assert gm.ranks_in(1) == [4, 5, 6, 7]
        assert gm.ranks_in(2) == [8, 9, 10, 11]

    def test_uneven_partition_front_loaded(self):
        gm = GroupMap(n_ranks=10, n_groups=3)
        assert gm.group_size(0) == 4
        assert gm.group_size(1) == 3
        assert gm.group_size(2) == 3

    def test_group_of_matches_ranks_in(self):
        gm = GroupMap(n_ranks=10, n_groups=3)
        for g in range(3):
            for r in gm.ranks_in(g):
                assert gm.group_of(r) == g

    def test_sub_coordinator_is_first_rank(self):
        gm = GroupMap(n_ranks=12, n_groups=4)
        assert [gm.sub_coordinator_of(g) for g in range(4)] == [0, 3, 6, 9]

    def test_coordinator_is_rank_zero(self):
        assert GroupMap(100, 10).coordinator == 0

    def test_jaguar_scale_ratio(self):
        """Paper: 225k cores over 672 targets -> at most 335 per SC."""
        gm = GroupMap(n_ranks=225_000, n_groups=672)
        assert max(gm.sizes) == 335

    def test_validation(self):
        with pytest.raises(ValueError):
            GroupMap(0, 1)
        with pytest.raises(ValueError):
            GroupMap(4, 0)
        with pytest.raises(ValueError):
            GroupMap(4, 5)
        gm = GroupMap(4, 2)
        with pytest.raises(ValueError):
            gm.group_of(4)
        with pytest.raises(ValueError):
            gm.ranks_in(2)


class TestGroupMapProperties:
    @given(st.integers(1, 500), st.integers(1, 50))
    @settings(max_examples=150)
    def test_partition_is_exact(self, n_ranks, n_groups):
        if n_groups > n_ranks:
            n_groups = n_ranks
        gm = GroupMap(n_ranks, n_groups)
        all_ranks = []
        for g in range(n_groups):
            all_ranks.extend(gm.ranks_in(g))
        assert all_ranks == list(range(n_ranks))

    @given(st.integers(1, 500), st.integers(1, 50))
    @settings(max_examples=150)
    def test_sizes_balanced(self, n_ranks, n_groups):
        if n_groups > n_ranks:
            n_groups = n_ranks
        gm = GroupMap(n_ranks, n_groups)
        sizes = [gm.group_size(g) for g in range(n_groups)]
        assert max(sizes) - min(sizes) <= 1

    @given(st.integers(1, 300), st.integers(1, 30))
    @settings(max_examples=100)
    def test_groups_contiguous(self, n_ranks, n_groups):
        if n_groups > n_ranks:
            n_groups = n_ranks
        gm = GroupMap(n_ranks, n_groups)
        for g in range(n_groups):
            ranks = gm.ranks_in(g)
            assert ranks == list(range(ranks[0], ranks[-1] + 1))
