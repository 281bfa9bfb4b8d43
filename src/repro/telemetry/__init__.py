"""Runtime telemetry: metrics registry, online monitoring, profiling.

The tracer (:mod:`repro.trace`) answers "what happened, in order";
this package answers "what is happening, now, and at what rate" — the
monitoring side of the tracing/monitoring split.  See DESIGN.md §12.
"""

from repro.telemetry.dashboard import render_dashboard
from repro.telemetry.monitor import OnlineMonitor, PoolSample, snapshot_machine
from repro.telemetry.profiler import Profiler, profiling
from repro.telemetry.registry import (
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Series,
)
from repro.telemetry.stragglers import StragglerDetector

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "OnlineMonitor",
    "PoolSample",
    "Profiler",
    "Series",
    "StragglerDetector",
    "profiling",
    "render_dashboard",
    "snapshot_machine",
]
