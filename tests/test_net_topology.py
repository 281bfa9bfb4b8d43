"""Unit tests for topology and message latency models."""

import numpy as np
import pytest

from repro.net import MessageLatencyModel, Topology


class TestTopology:
    def test_packed_placement(self):
        topo = Topology(n_ranks=30, cores_per_node=12)
        assert topo.n_nodes == 3
        assert topo.node_of(0) == 0
        assert topo.node_of(11) == 0
        assert topo.node_of(12) == 1
        assert topo.node_of(29) == 2

    def test_ranks_on_node(self):
        topo = Topology(n_ranks=24, cores_per_node=12)
        assert topo.ranks_on_node(1).tolist() == list(range(12, 24))

    def test_nic_capacities(self):
        topo = Topology(n_ranks=13, cores_per_node=12, nic_bandwidth=5.0)
        caps = topo.nic_capacities()
        assert caps.shape == (2,)
        assert (caps == 5.0).all()

    def test_vectorized_mapping_readonly(self):
        topo = Topology(n_ranks=5, cores_per_node=2)
        with pytest.raises(ValueError):
            topo.node_of_rank[0] = 7

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            Topology(n_ranks=0)
        with pytest.raises(ValueError):
            Topology(n_ranks=1, cores_per_node=0)
        with pytest.raises(ValueError):
            Topology(n_ranks=1, nic_bandwidth=0)


class TestLatencyModel:
    def test_alpha_beta(self):
        m = MessageLatencyModel(alpha=1e-6, beta=1e-9)
        assert m.point_to_point(1000) == pytest.approx(2e-6)

    def test_zero_size(self):
        m = MessageLatencyModel(alpha=5e-6, beta=1e-9)
        assert m.point_to_point(0) == pytest.approx(5e-6)

    def test_tree_collective_log_depth(self):
        m = MessageLatencyModel(alpha=1e-6, beta=0)
        assert m.tree_collective(0, 2) == pytest.approx(1e-6)
        assert m.tree_collective(0, 1024) == pytest.approx(10e-6)

    def test_negative_params_rejected(self):
        with pytest.raises(ValueError):
            MessageLatencyModel(alpha=-1)
        m = MessageLatencyModel()
        with pytest.raises(ValueError):
            m.point_to_point(-5)
        with pytest.raises(ValueError):
            m.tree_collective(0, 0)
