"""IO transports: Adaptive IO and the static methods it is measured against."""

from repro.core.transports.base import OutputResult, Transport, WriterTiming
from repro.core.transports.static import (
    MpiIoTransport,
    PosixTransport,
    SplitFilesTransport,
    StaggerTransport,
    StaticTransport,
)
from repro.core.transports.adaptive import AdaptiveTransport
from repro.core.transports.history import (
    HistoryAwareAdaptiveTransport,
    PerformanceHistory,
)

__all__ = [
    "AdaptiveTransport",
    "HistoryAwareAdaptiveTransport",
    "MpiIoTransport",
    "OutputResult",
    "PerformanceHistory",
    "PosixTransport",
    "SplitFilesTransport",
    "StaggerTransport",
    "StaticTransport",
    "Transport",
    "WriterTiming",
]
