"""Discrete-event simulation kernel.

A small, dependency-free DES kernel in the style of SimPy: simulation
*processes* are Python generators that ``yield`` :class:`~repro.sim.events.Event`
objects to suspend until the event fires.  The :class:`~repro.sim.engine.Environment`
owns the event calendar and the clock.

The kernel is the substrate everything else in :mod:`repro` runs on: the
simulated MPI layer, the Lustre-like file system, the interference
generators, and the adaptive-IO protocol processes are all kernel
processes exchanging kernel events.

Example
-------
>>> from repro.sim import Environment
>>> env = Environment()
>>> log = []
>>> def ticker(env, period):
...     while True:
...         yield env.timeout(period)
...         log.append(env.now)
>>> _ = env.process(ticker(env, 10.0))
>>> env.run(until=35.0)
>>> log
[10.0, 20.0, 30.0]
"""

from repro.sim.events import (
    AllOf,
    AllSettled,
    AnyOf,
    Event,
    EventAborted,
    Timeout,
)
from repro.sim.process import Interrupt, Mailbox, Process, ProcessKilled
from repro.sim.engine import Deadlock, Environment, SimulationError
from repro.sim.queues import Resource
from repro.sim.rng import RngRegistry

__all__ = [
    "AllOf",
    "AllSettled",
    "AnyOf",
    "Deadlock",
    "Environment",
    "Event",
    "EventAborted",
    "Interrupt",
    "Mailbox",
    "Process",
    "ProcessKilled",
    "Resource",
    "RngRegistry",
    "SimulationError",
    "Timeout",
]
