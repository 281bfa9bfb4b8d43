"""The ADIOS-like middleware facade.

"The ADIOS layer is used to switch between the MPI-IO and the adaptive
transport methods" — this class is that switch: applications name a
transport (as ADIOS does in its XML config) and call ``write_output``;
everything else (grouping, protocol, files, index) is the transport's
business.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Optional

from repro.core.transports.adaptive import AdaptiveTransport
from repro.core.transports.base import OutputResult, Transport
from repro.core.transports.history import HistoryAwareAdaptiveTransport
from repro.core.transports.static import (
    MpiIoTransport,
    PosixTransport,
    SplitFilesTransport,
    StaggerTransport,
)
from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.apps.base import AppKernel
    from repro.machines.base import Machine

__all__ = ["Adios"]

_FACTORIES: Dict[str, Callable[..., Transport]] = {
    "posix": PosixTransport,
    "mpiio": MpiIoTransport,
    "adaptive": AdaptiveTransport,
    "stagger": StaggerTransport,
    "splitfiles": SplitFilesTransport,
    "adaptive-history": HistoryAwareAdaptiveTransport,
}


class Adios:
    """Middleware bound to a machine, with a selected transport.

    >>> from repro.machines import jaguar
    >>> from repro.apps import pixie3d
    >>> m = jaguar(n_osts=16).build(n_ranks=32, seed=0)
    >>> io = Adios(m, method="adaptive")
    >>> result = io.write_output(pixie3d("small"), name="restart.000")
    >>> result.total_bytes == pixie3d("small").per_process_bytes * 32
    True
    """

    def __init__(self, machine: "Machine", method: str = "mpiio",
                 **method_options):
        self.machine = machine
        self.method = method
        self.transport = self.make_transport(method, **method_options)
        self._step = 0

    @staticmethod
    def available_methods() -> list:
        return sorted(_FACTORIES)

    @staticmethod
    def make_transport(method: str, **options) -> Transport:
        """The transport named *method*, built with *options*."""
        try:
            factory = _FACTORIES[method]
        except KeyError:
            raise ConfigurationError(
                f"unknown IO method {method!r}; available: "
                f"{sorted(_FACTORIES)}"
            ) from None
        return factory(**options)

    def write_output(
        self,
        app: "AppKernel",
        name: Optional[str] = None,
    ) -> OutputResult:
        """Run one full output operation of *app* through the transport."""
        if name is None:
            name = f"{app.name}.{self._step:05d}"
        self._step += 1
        return self.transport.run(self.machine, app, output_name=name)
