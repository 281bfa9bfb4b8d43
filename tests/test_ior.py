"""Tests for the IOR workload runner."""

import pytest

from repro.ior import IorConfig, run_ior
from repro.ior.runner import ior_app
from repro.machines import jaguar, xtp
from repro.units import MB


class TestIorConfig:
    def test_defaults(self):
        cfg = IorConfig(n_writers=8)
        assert cfg.api == "posix"
        assert cfg.total_bytes == 8 * 128 * MB

    def test_validation(self):
        with pytest.raises(ValueError):
            IorConfig(n_writers=0)
        with pytest.raises(ValueError):
            IorConfig(n_writers=1, block_size=0)
        with pytest.raises(ValueError):
            IorConfig(n_writers=1, api="hdf5")

    def test_ior_app_size(self):
        app = ior_app(16 * MB)
        assert app.per_process_bytes == pytest.approx(16 * MB)


class TestRunIor:
    def test_posix_mode(self):
        m = jaguar(n_osts=4).build(n_ranks=8, seed=0)
        res = run_ior(
            m, IorConfig(n_writers=8, block_size=4 * MB, n_osts_used=4)
        )
        assert res.transport == "posix"
        assert res.n_writers == 8
        assert len(res.files) == 8  # one file per writer
        assert res.total_bytes == pytest.approx(8 * 4 * MB)

    def test_mpiio_mode(self):
        m = jaguar(n_osts=4).build(n_ranks=8, seed=0)
        res = run_ior(
            m,
            IorConfig(n_writers=8, block_size=4 * MB, api="mpiio",
                      n_osts_used=4),
        )
        assert res.transport == "mpiio"
        assert len(res.files) == 1  # single shared file

    def test_rank_mismatch_rejected(self):
        m = jaguar(n_osts=4).build(n_ranks=4, seed=0)
        with pytest.raises(ValueError):
            run_ior(m, IorConfig(n_writers=8))

    def test_panfs_flatness(self):
        """XTP shows <5% per-writer aggregate loss doubling writers —
        the paper's PanFS observation."""
        bws = {}
        for n in (480, 960):
            m = xtp().build(n_ranks=n, seed=0)
            res = run_ior(
                m,
                IorConfig(n_writers=n, block_size=64 * MB,
                          n_osts_used=40),
            )
            bws[n] = res.write_bandwidth
        drop = 1 - bws[960] / bws[480]
        assert drop < 0.10, f"PanFS degraded {drop:.0%} on doubling"

    def test_jaguar_steeper_than_panfs(self):
        """Same doubling on Jaguar-like Lustre loses clearly more."""
        def degradation(spec, n_osts):
            bws = {}
            for mult in (12, 24):
                n = n_osts * mult
                m = spec.build(n_ranks=n, seed=0)
                res = run_ior(
                    m, IorConfig(n_writers=n, block_size=64 * MB,
                                 n_osts_used=n_osts)
                )
                bws[mult] = res.write_bandwidth
            return 1 - bws[24] / bws[12]

        lustre_drop = degradation(jaguar(n_osts=40), 40)
        panfs_drop = degradation(xtp(), 40)
        assert lustre_drop > panfs_drop + 0.05
