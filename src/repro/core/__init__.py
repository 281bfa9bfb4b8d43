"""ADIOS-like middleware and the Adaptive IO method.

This package is the paper's contribution, built on the substrates in
:mod:`repro.lustre`, :mod:`repro.net`, :mod:`repro.mpi` and
:mod:`repro.interference`:

* :mod:`repro.core.transports.static` — the static methods as
  presets of one layout-driven writer: the tuned MPI-IO baseline
  (buffered, stripe-aligned shared file, capped at 160 OSTs by Lustre
  1.6), file-per-process POSIX-style output (the IOR configuration of
  Section II), split files, and the earlier staggered-IO method
  (serialization without steering, kept as an ablation);
* :mod:`repro.core.transports.adaptive` — **Adaptive IO**:
  writer / sub-coordinator / coordinator roles implementing the
  paper's Algorithms 1-3, one active writer per storage target,
  dynamic steering of remaining work from slow targets to free ones;
* :mod:`repro.core.index` / :mod:`repro.core.bp` — BP-style sub-files
  with local indices, merged global index and per-variable data
  characteristics.

Entry point: :class:`repro.core.middleware.Adios`.
"""

from repro.core.index import (
    Characteristics,
    GlobalIndex,
    IndexEntry,
    LocalIndex,
)
from repro.core.groups import GroupMap
from repro.core.middleware import Adios
from repro.core.transports.base import OutputResult, Transport, WriterTiming

__all__ = [
    "Adios",
    "Characteristics",
    "GlobalIndex",
    "GroupMap",
    "IndexEntry",
    "LocalIndex",
    "OutputResult",
    "Transport",
    "WriterTiming",
]
