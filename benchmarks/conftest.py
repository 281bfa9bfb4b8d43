"""Shared fixtures for the benchmark suite.

Every bench regenerates one paper artifact (table/figure) or ablation.
Scale comes from REPRO_SCALE ("smoke" | "small" | "paper"); the
default "small" keeps full experimental shape on a 1/8-size machine so
the whole suite runs in minutes.  Rendered tables are written to
``benchmarks/results/*.txt`` plus a machine-readable
``benchmarks/results/BENCH_*.json`` (and echoed to stdout) so the
artifacts survive pytest's capture.

Pass ``--trace PATH`` (or ``--trace-json PATH``) to export a Chrome
trace-event JSON covering every simulation run in the session (open in
Perfetto, or summarize with ``python -m repro.tools.trace PATH``).
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.harness.experiment import Scale, scale_from_env

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def _repurpose_builtin_trace(parser) -> bool:
    """Turn pytest's own ``--trace`` (break into pdb before each test,
    pointless for a benchmark suite) into ``--trace PATH``.

    Best-effort: rewrites the already-registered argparse action, so if
    a pytest release moves things around we silently keep only the
    ``--trace-json`` spelling.
    """
    import argparse

    try:
        optparser = getattr(parser, "optparser", None)
        if optparser is None:
            return False
        for action in optparser._actions:
            if "--trace" in action.option_strings:
                action.__class__ = argparse._StoreAction
                action.nargs = None
                action.const = None
                action.default = None
                action.type = str
                action.metavar = "PATH"
                action.help = (
                    "export a Chrome trace-event JSON of every "
                    "simulation run in this benchmark session"
                )
                return True
        return False
    except Exception:  # pragma: no cover - pytest internals moved
        return False


def pytest_addoption(parser):
    _repurpose_builtin_trace(parser)
    parser.addoption(
        "--trace-json",
        action="store",
        default=None,
        metavar="PATH",
        help="export a Chrome trace-event JSON of every simulation run "
        "in this benchmark session (alias of --trace)",
    )
    parser.addoption(
        "--jobs",
        action="store",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for sample fan-out inside each benchmark "
        "(0 = all cores; default: REPRO_JOBS, else serial).  Results "
        "are bit-identical to serial runs",
    )
    parser.addoption(
        "--journal",
        action="store",
        default=None,
        metavar="DIR",
        help="checkpoint every completed sweep cell to DIR "
        "(append-only JSON-lines journal; re-running the suite with "
        "the same DIR resumes finished cells bit-identically.  "
        "Equivalent to setting REPRO_JOURNAL; inspect progress with "
        "python -m repro.tools.bench_report --partial DIR)",
    )


def _trace_path(config) -> "str | None":
    path = config.getoption("--trace-json")
    if path:
        return path
    val = config.getoption("trace", default=None)
    return val if isinstance(val, str) else None


def pytest_configure(config):
    jobs = config.getoption("--jobs")
    if jobs is not None:
        import os

        os.environ["REPRO_JOBS"] = str(jobs)
    from repro.service.journal import get_active_state_dir, open_sweep

    state_dir = config.getoption("--journal") or get_active_state_dir()
    if state_dir is not None:
        # The suite's benches fix their own seeds, so the manifest pins
        # the scale and no seed.
        try:
            open_sweep(state_dir, ["benchmarks"],
                       scale_from_env(Scale.SMALL).value, None)
        except SystemExit as exc:
            raise pytest.UsageError(str(exc)) from None
    # If --trace carried a path, make sure pytest's debugging plugin
    # never sees it as a truthy "break into pdb" request.
    if isinstance(getattr(config.option, "trace", None), str):
        config._repro_trace_path = config.option.trace
        config.option.trace = False
        pm = config.pluginmanager
        if pm.has_plugin("pdbtrace"):
            pm.unregister(name="pdbtrace")


@pytest.fixture(scope="session", autouse=True)
def _session_trace(request):
    path = getattr(request.config, "_repro_trace_path", None) or _trace_path(
        request.config
    )
    if not path:
        yield None
        return
    from repro.harness.experiment import trace_to

    with trace_to(path) as tracer:
        yield tracer
    print(f"\n[trace: {len(tracer.events)} events -> {path}]")


@pytest.fixture(scope="session")
def scale() -> Scale:
    return scale_from_env(Scale.SMALL)


@pytest.fixture(scope="session")
def save_result():
    RESULTS_DIR.mkdir(exist_ok=True)

    def _save(name: str, text: str, data=None) -> None:
        path = RESULTS_DIR / f"{name}.txt"
        path.write_text(text + "\n")
        json_path = RESULTS_DIR / f"BENCH_{name}.json"
        payload = {"name": name, "text": text, "data": data}
        json_path.write_text(json.dumps(payload, indent=2, default=float) + "\n")
        print(f"\n{text}\n[saved to {path} and {json_path}]")

    return _save
