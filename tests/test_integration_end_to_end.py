"""End-to-end integration scenarios spanning multiple subsystems."""

import numpy as np
import pytest

from repro.apps import pixie3d, s3d, xgc1
from repro.core import Adios
from repro.core.bp import BpReader
from repro.interference import (
    BackgroundWriterJob,
    install_production_noise,
)
from repro.machines import bluegene_p, franklin, jaguar
from tests.specs import small_xtp


class TestMultiStepCampaign:
    def test_repeated_outputs_share_one_simulation(self):
        """Several output steps against one live machine: time always
        advances, namespaces never collide, bytes accumulate."""
        m = jaguar(n_osts=8).build(n_ranks=32, seed=0)
        install_production_noise(m, live=True)
        io = Adios(m, method="adaptive")
        last_t = -1.0
        total = 0.0
        for step in range(3):
            res = io.write_output(pixie3d("small"))
            assert m.env.now > last_t
            last_t = m.env.now
            total += res.total_bytes
        assert m.fs.total_bytes_absorbed() >= total * 0.999
        # Three steps x (8 sub-files + index) all present.
        assert len(m.fs.listdir()) == 3 * 9

    def test_write_then_read_back_same_machine(self):
        m = jaguar(n_osts=8).build(n_ranks=16, seed=1)
        io = Adios(m, method="adaptive")
        res = io.write_output(s3d(grid=16, n_species=2))
        reader = BpReader(m.fs, res.index)
        proc = m.env.process(reader.read_variable(node=0, var="temp"))
        nbytes, seconds = m.env.run(until=proc)
        assert nbytes == pytest.approx(16 * 16**3 * 8)
        assert seconds > 0

    def test_mixed_transports_same_machine(self):
        """An MPI-IO step and an adaptive step can interleave on one
        machine (different output sets)."""
        m = jaguar(n_osts=8).build(n_ranks=16, seed=2)
        r1 = Adios(m, method="mpiio").write_output(xgc1(), name="a")
        r2 = Adios(m, method="adaptive").write_output(xgc1(), name="b")
        assert r1.total_bytes == r2.total_bytes
        assert m.fs.exists("/a.bp")
        assert m.fs.exists("/b.bp.dir/0000.bp")


class TestInterferenceIntegration:
    def test_background_job_slows_the_application(self):
        times = {}
        for label, with_job in (("quiet", False), ("noisy", True)):
            m = small_xtp(8).build(
                n_ranks=32, seed=3, extra_service_nodes=2
            )
            if with_job:
                BackgroundWriterJob(
                    m, n_osts=4, writers_per_ost=3, write_size=256e6
                ).start()
            res = Adios(m, method="mpiio").write_output(
                pixie3d("large"), name="out"
            )
            times[label] = res.reported_time
        assert times["noisy"] > times["quiet"] * 1.1

    def test_adaptive_mitigates_background_job(self):
        times = {}
        for method in ("mpiio", "adaptive"):
            per = {}
            for label, with_job in (("quiet", False), ("noisy", True)):
                m = jaguar(n_osts=16).build(
                    n_ranks=64, seed=4, extra_service_nodes=2
                )
                m.fs.max_stripe_count = 4
                if with_job:
                    BackgroundWriterJob(
                        m, n_osts=2, writers_per_ost=3,
                        write_size=512e6,
                    ).start()
                res = Adios(m, method=method).write_output(
                    pixie3d("large"), name="out"
                )
                per[label] = res.reported_time
            times[method] = per
        # The headline property: adaptive stays decisively faster
        # under interference ...
        assert times["adaptive"]["noisy"] < times["mpiio"]["noisy"] / 1.5
        # ... and the absolute seconds the interference costs it are
        # no worse than what it costs the baseline (steering absorbs
        # part of the hit; the baseline eats all of it).
        hit_adaptive = times["adaptive"]["noisy"] - times["adaptive"]["quiet"]
        hit_mpiio = times["mpiio"]["noisy"] - times["mpiio"]["quiet"]
        assert hit_adaptive <= hit_mpiio * 1.05


class TestCrossMachineSanity:
    @pytest.mark.parametrize(
        "spec_factory,n_ranks",
        [
            (lambda: jaguar(n_osts=8), 16),
            (lambda: franklin(n_osts=8), 16),
            (lambda: small_xtp(8), 16),
            (lambda: bluegene_p(n_nsd_servers=8), 16),
        ],
        ids=["jaguar", "franklin", "xtp", "bluegene_p"],
    )
    def test_adaptive_runs_on_every_machine_model(self, spec_factory,
                                                  n_ranks):
        m = spec_factory().build(n_ranks=n_ranks, seed=5)
        res = Adios(m, method="adaptive").write_output(
            pixie3d("small"), name="out"
        )
        assert res.index is not None
        assert res.total_bytes > 0
        assert res.reported_time > 0

    def test_relative_peak_bandwidth_ordering(self):
        """Aggregate quiet-system capability must follow machine size:
        Jaguar (672 x 180 MB/s) >> XTP (40 x 220 MB/s)."""
        results = {}
        for name, spec, n in (
            ("jaguar", jaguar(n_osts=64), 256),
            ("xtp", small_xtp(8), 96),
        ):
            m = spec.build(n_ranks=n, seed=6)
            res = Adios(m, method="adaptive").write_output(
                pixie3d("large"), name="out"
            )
            results[name] = res.aggregate_bandwidth
        assert results["jaguar"] > results["xtp"]
