"""Tests for the experiment harness (sampling, reporting, figures)."""

import pytest

from repro.harness import (
    Scale,
    format_table,
    run_samples,
    scale_from_env,
)
from repro.harness.experiment import sample_seed


class TestScale:
    def test_parse(self):
        assert Scale.parse("smoke") is Scale.SMOKE
        assert Scale.parse("PAPER") is Scale.PAPER
        assert Scale.parse(Scale.SMALL) is Scale.SMALL
        with pytest.raises(ValueError):
            Scale.parse("huge")

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "paper")
        assert scale_from_env() is Scale.PAPER
        monkeypatch.delenv("REPRO_SCALE")
        assert scale_from_env() is Scale.SMALL


class TestSampling:
    def test_run_samples_derives_seeds(self):
        seeds = run_samples(lambda s: s, 3, base_seed=5)
        assert len(seeds) == 3
        assert len(set(seeds)) == 3

    def test_seeds_disjoint_across_bases(self):
        a = {sample_seed(0, i) for i in range(100)}
        b = {sample_seed(1, i) for i in range(100)}
        assert not (a & b)

    def test_zero_samples_rejected(self):
        with pytest.raises(ValueError):
            run_samples(lambda s: s, 0)


class TestReport:
    def test_format_table(self):
        out = format_table(
            ["name", "value"], [("a", 1.5), ("bb", 20)], title="T"
        )
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1]
        assert "----" in lines[2]
        assert "1.50" in out

    def test_format_table_wrong_width(self):
        with pytest.raises(ValueError):
            format_table(["a"], [(1, 2)])


class TestFigureSmokes:
    """End-to-end smoke runs of each figure module (tiny presets)."""

    def test_fig1(self):
        from repro.harness.figures import fig1

        r = fig1.run("smoke", base_seed=3)
        assert r.render()
        # per-writer bandwidth must decline for every size even at
        # smoke scale.
        for size in r.sizes_mb:
            assert r.per_writer_monotone_decline(size)

    def test_table1_and_fig2(self):
        from repro.harness.figures import fig2

        r = fig2.run("smoke", base_seed=3)
        out = r.render()
        assert "Jaguar" in r.source.render()
        assert "#" in out  # bars rendered
        assert set(r.histograms) == {
            "jaguar", "franklin", "xtp_with_int", "xtp_without_int"
        }

    def test_fig3(self):
        from repro.harness.figures import fig3

        r = fig3.run("smoke", base_seed=3)
        assert r.imbalance_test1 >= 1.0
        assert r.mean_imbalance >= 1.0
        assert "imbalance" in r.render()

    def test_fig6_and_fig7_reuse(self):
        from repro.harness.figures import fig6, fig7

        r6 = fig6.run("smoke", base_seed=3)
        assert r6.render()
        sweep = r6.sweep
        n = sweep.config.proc_counts[-1]
        assert sweep.speedup("base", n) > 0
        # fig7 must reuse precomputed sweeps without re-running.
        r7 = fig7.run(
            "smoke", precomputed={"xgc1": sweep}, cases=("xgc1",)
        )
        assert r7.sweeps["xgc1"] is sweep
        assert "XGC1" in r7.render()

    def test_fig5_single_model(self):
        from repro.harness.figures import fig5

        r = fig5.run("smoke", base_seed=3, models=("large",))
        assert "large" in r.panels
        sweep = r.panels["large"]
        n = sweep.config.proc_counts[-1]
        assert sweep.speedup("base", n) > 0
