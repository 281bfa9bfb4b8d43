"""End-to-end simulation tracing.

A :class:`Tracer` records structured events — spans (begin/end),
instants and counters — from every instrumented layer of the simulator
(engine, fabric, storage targets, MPI, transports) into an in-memory
buffer.  Two exporters turn the buffer into standard artifacts:

* :mod:`repro.trace.chrome` — Chrome trace-event JSON, loadable in
  Perfetto (https://ui.perfetto.dev) or ``chrome://tracing``;
* :mod:`repro.trace.counters` — a Darshan-style per-writer counter
  report (bytes, write counts, time per phase).

Tracing is opt-in and zero-cost when off: instrumentation sites check
``env.tracer is None`` (a single attribute load) before touching the
tracer; an environment with no tracer attached records nothing.

The instrumentation session (:mod:`repro.session`) lets a harness
switch tracing on for every machine built inside a scope without
threading a tracer argument through every figure and benchmark::

    with instrumented(tracer=Tracer()) as s:
        result = fig6.run("smoke")
    chrome.export(s.tracer.events, "trace.json")

:meth:`repro.machines.base.MachineSpec.build` consults the session.
"""

from repro.trace.tracer import TraceEvent, Tracer, check_well_formed

__all__ = ["TraceEvent", "Tracer", "check_well_formed"]
