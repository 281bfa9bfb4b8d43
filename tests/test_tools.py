"""Tests for the CLI entry points."""

import json
import os
from types import SimpleNamespace

import pytest

from repro.tools.bench_report import main as report_main, parse_gate
from repro.tools.compare import build_app, build_spec, main as compare_main
from repro.tools.experiment import ARTIFACTS, main as experiment_main


class TestExperimentCli:
    def test_artifact_registry_covers_paper(self):
        assert set(ARTIFACTS) == {
            "fig1", "table1", "fig2", "fig3", "fig5", "fig6", "fig7",
            "resilience", "qos",
        }

    def test_runs_one_artifact(self, capsys):
        rc = experiment_main(["fig3", "--scale", "smoke", "--seed", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "imbalance" in out
        assert "fig3 @ smoke" in out

    def test_rejects_unknown_artifact(self):
        with pytest.raises(SystemExit):
            experiment_main(["fig99"])

    def test_rejects_unknown_scale(self):
        with pytest.raises(SystemExit):
            experiment_main(["fig3", "--scale", "galactic"])

    def test_faults_skip_artifacts_with_their_own_plans(
        self, tmp_path, monkeypatch
    ):
        from repro.faults import two_ost_failure_plan

        plan = tmp_path / "plan.json"
        two_ost_failure_plan().save_json(str(plan))
        # Registers the variable with monkeypatch, so the value that
        # ``--faults`` sets below is undone after the test.
        monkeypatch.setenv("REPRO_FAULTS", str(plan))
        seen = {}

        def stub(name):
            def run(scale, seed):
                seen[name] = os.environ.get("REPRO_FAULTS")
                return SimpleNamespace(render=lambda: name)
            return run

        for name in ("resilience", "qos", "fig3"):
            monkeypatch.setitem(ARTIFACTS, name, stub(name))
            rc = experiment_main([name, "--scale", "smoke",
                                  "--faults", str(plan)])
            assert rc == 0
        # resilience and qos pair faulted runs with fault-free
        # baselines, so an ambient plan must not reach them.
        assert seen == {"resilience": None, "qos": None,
                        "fig3": str(plan)}
        assert os.environ["REPRO_FAULTS"] == str(plan)


class TestCompareCli:
    def test_build_app_tokens(self):
        assert build_app("xgc1").name == "xgc1"
        assert build_app("pixie3d:small").name == "pixie3d.small"
        assert build_app("gtc").name == "gtc"
        assert build_app("s3d").name.startswith("s3d")
        assert build_app("ior:64").per_process_bytes == pytest.approx(64e6)
        with pytest.raises(SystemExit):
            build_app("doom")

    def test_build_spec_overrides(self):
        spec = build_spec("jaguar", 32, 8)
        assert spec.n_osts == 32
        assert spec.max_stripe_count == 8
        with pytest.raises(SystemExit):
            build_spec("summit", None, None)

    def test_end_to_end_comparison(self, capsys):
        rc = compare_main(
            [
                "--app", "ior:4", "--procs", "8", "--osts", "4",
                "--methods", "posix", "adaptive", "--seed", "2",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "posix" in out and "adaptive" in out
        assert "GB/s" in out

    def test_noise_and_background_flags(self, capsys):
        rc = compare_main(
            [
                "--app", "ior:4", "--procs", "8", "--osts", "12",
                "--methods", "adaptive", "--noise", "--background-job",
            ]
        )
        assert rc == 0


class TestBenchReportGates:
    @staticmethod
    def _write(dirpath, name, data):
        (dirpath / f"BENCH_{name}.json").write_text(
            json.dumps({"name": name, "text": "", "data": data})
        )

    @pytest.fixture
    def dirs(self, tmp_path):
        results = tmp_path / "results"
        baseline = tmp_path / "baseline"
        results.mkdir()
        baseline.mkdir()
        return results, baseline

    def test_parse_gate(self):
        assert parse_gate("scale.adaptive_8192_seconds=0.7") == (
            "scale", "adaptive_8192_seconds", 0.7
        )
        with pytest.raises(ValueError):
            parse_gate("no_metric=0.7")
        with pytest.raises(ValueError):
            parse_gate("bench.metric")

    def test_higher_better_pass_and_fail(self, dirs, capsys):
        results, baseline = dirs
        self._write(baseline, "kernel", {"events_per_sec": 100.0})
        self._write(results, "kernel", {"events_per_sec": 80.0})
        rc = report_main([
            "--results", str(results), "--baseline", str(baseline),
            "--gate", "kernel.events_per_sec=0.70",
        ])
        assert rc == 0
        self._write(results, "kernel", {"events_per_sec": 50.0})
        rc = report_main([
            "--results", str(results), "--baseline", str(baseline),
            "--gate", "kernel.events_per_sec=0.70",
        ])
        assert rc == 1
        assert "FAIL" in capsys.readouterr().out

    def test_seconds_metric_is_lower_better(self, dirs):
        results, baseline = dirs
        self._write(baseline, "scale", {"adaptive_8192_seconds": 7.0})
        # Faster than baseline: ratio 7/2 well above the gate.
        self._write(results, "scale", {"adaptive_8192_seconds": 2.0})
        rc = report_main([
            "--results", str(results), "--baseline", str(baseline),
            "--gate", "scale.adaptive_8192_seconds=0.70",
        ])
        assert rc == 0
        # 2x slower than baseline: ratio 0.5 < 0.70 must fail.
        self._write(results, "scale", {"adaptive_8192_seconds": 14.0})
        rc = report_main([
            "--results", str(results), "--baseline", str(baseline),
            "--gate", "scale.adaptive_8192_seconds=0.70",
        ])
        assert rc == 1

    def test_nested_metrics_flatten_and_missing_fails(self, dirs):
        results, baseline = dirs
        self._write(
            baseline, "scale",
            {"fig6_cell": {"adaptive": {"wall_seconds": 8.0}}},
        )
        self._write(
            results, "scale",
            {"fig6_cell": {"adaptive": {"wall_seconds": 4.0}}},
        )
        rc = report_main([
            "--results", str(results), "--baseline", str(baseline),
            "--gate", "scale.fig6_cell.adaptive.wall_seconds=0.70",
        ])
        assert rc == 0
        rc = report_main([
            "--results", str(results), "--baseline", str(baseline),
            "--gate", "scale.not_a_metric=0.70",
        ])
        assert rc == 1

    def test_gate_requires_baseline(self, dirs):
        results, _ = dirs
        rc = report_main([
            "--results", str(results),
            "--gate", "kernel.events_per_sec=0.70",
        ])
        assert rc == 2
