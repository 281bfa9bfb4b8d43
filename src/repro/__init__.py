"""repro — a reproduction of "Managing Variability in the IO
Performance of Petascale Storage Systems" (Lofstead et al., SC 2010).

The package contains two things:

1. **A discrete-event petascale storage simulator** — compute-node
   topology, a max-min-fair fluid network, Lustre-/PanFS-like storage
   targets with write-back caches and concurrency-dependent
   efficiency, a metadata server, simulated MPI, and Markov-modulated
   external interference (:mod:`repro.sim`, :mod:`repro.net`,
   :mod:`repro.lustre`, :mod:`repro.mpi`, :mod:`repro.interference`,
   :mod:`repro.machines`).
2. **The paper's contribution on top of it** — ADIOS-style middleware
   with POSIX, MPI-IO (baseline), stagger, split-files and **Adaptive
   IO** transports, BP-style sub-files with local/global indices and
   data characteristics (:mod:`repro.core`), plus the application
   kernels (:mod:`repro.apps`), IOR (:mod:`repro.ior`), metrics
   (:mod:`repro.metrics`) and the per-figure experiment harness
   (:mod:`repro.harness`).

Quick start::

    from repro.machines import jaguar
    from repro.apps import xgc1
    from repro.core import Adios

    machine = jaguar(n_osts=84).build(n_ranks=512, seed=0)
    io = Adios(machine, method="adaptive")
    result = io.write_output(xgc1())
    print(result.aggregate_bandwidth / 1e9, "GB/s")
"""

from repro.core.middleware import Adios
from repro.machines import franklin, jaguar, xtp

__version__ = "1.0.0"

__all__ = [
    "Adios",
    "__version__",
    "franklin",
    "jaguar",
    "xtp",
]
