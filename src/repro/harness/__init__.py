"""Experiment harness: seeded multi-sample runs and report formatting.

One module per paper artifact lives in :mod:`repro.harness.figures`;
each exposes ``run(scale=..., base_seed=...)`` returning a structured
result whose ``render()`` prints the same rows/series the paper
reports.  ``scale`` selects a preset: "smoke" (seconds, used by
tests), "small" (the benchmark default — reduced machine, full shape),
"paper" (the publication configuration; hours of wall time).
"""

from repro.harness.experiment import Scale, n_samples_override, scale_from_env
from repro.harness.parallel import parallel_map, resolve_jobs, run_samples
from repro.harness.report import format_table, render_series

__all__ = [
    "Scale",
    "format_table",
    "n_samples_override",
    "parallel_map",
    "render_series",
    "resolve_jobs",
    "run_samples",
    "scale_from_env",
]
