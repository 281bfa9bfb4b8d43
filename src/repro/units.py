"""Units and conventions used throughout the simulator.

* time  — seconds (float)
* size  — bytes (int or float; fluid flows use floats)
* rate  — bytes/second

The paper reports bandwidths in MB/s and GB/s with decimal prefixes
(storage-vendor convention); we follow that so reproduced numbers read
like the paper's.
"""

from __future__ import annotations

__all__ = [
    "KB",
    "MB",
    "GB",
    "TB",
    "KiB",
    "MiB",
    "GiB",
    "fmt_bytes",
    "fmt_rate",
]

KB = 1000
MB = 1000**2
GB = 1000**3
TB = 1000**4

KiB = 1024
MiB = 1024**2
GiB = 1024**3


def fmt_bytes(n: float) -> str:
    """Human-readable size: ``fmt_bytes(3e9) == '3.00 GB'``."""
    for unit, name in ((TB, "TB"), (GB, "GB"), (MB, "MB"), (KB, "KB")):
        if abs(n) >= unit:
            return f"{n / unit:.2f} {name}"
    return f"{n:.0f} B"


def fmt_rate(rate: float) -> str:
    """Human-readable rate: ``fmt_rate(2.5e9) == '2.50 GB/s'``."""
    return fmt_bytes(rate) + "/s"
