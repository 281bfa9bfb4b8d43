#!/usr/bin/env python
"""Pixie3D extra-large restart dump under heavy interference, then a
restart-style read-back through the global index.

This is the paper's most dramatic configuration (Fig. 5(c)): 1 GB per
process, more writers than storage targets, a continuously-writing
co-tenant job — the regime where adaptive IO's steering pays off ~4.8x.

Run:  python examples/pixie3d_restart.py
"""

from repro.apps import pixie3d
from repro.core import Adios
from repro.core.bp import BpReader
from repro.interference import BackgroundWriterJob, install_production_noise
from repro.machines import jaguar
from repro.units import GB, fmt_bytes, fmt_rate

N_RANKS = 256
N_OSTS = 48


def build_machine(seed: int):
    spec = jaguar(n_osts=N_OSTS).with_overrides(max_stripe_count=12)
    machine = spec.build(n_ranks=N_RANKS, seed=seed,
                         extra_service_nodes=2)
    install_production_noise(machine, live=True)
    job = BackgroundWriterJob(
        machine, n_osts=8, writers_per_ost=3, write_size=1 * GB
    )
    job.start()
    return machine


def main() -> None:
    app = pixie3d("xl")
    print(
        f"Pixie3D XL: {N_RANKS} procs x "
        f"{fmt_bytes(app.per_process_bytes)} = "
        f"{fmt_bytes(app.total_bytes(N_RANKS))} per output step, "
        f"{N_OSTS} OSTs, 24-process interference job running\n"
    )

    results = {}
    for method in ("mpiio", "adaptive"):
        machine = build_machine(seed=7)
        io = Adios(machine, method=method)
        res = io.write_output(app, name="pixie3d.r0")
        results[method] = (machine, res)
        print(
            f"{method:>8}: {fmt_rate(res.aggregate_bandwidth):>12}   "
            f"time {res.reported_time:7.1f} s   "
            f"steered writes: {res.n_adaptive_writes}"
        )

    speedup = (
        results["adaptive"][1].aggregate_bandwidth
        / results["mpiio"][1].aggregate_bandwidth
    )
    print(f"\nadaptive / mpiio speedup: {speedup:.2f}x")

    # Restart read: locate and read back one rank's magnetic field via
    # the global index — a single lookup plus a direct read.
    machine, res = results["adaptive"]
    reader = BpReader(machine.fs, res.index)
    proc = machine.env.process(reader.read_block(node=0, var="bx",
                                                 writer=17))
    entry, seconds = machine.env.run(until=proc)
    print(
        f"\nread back 'bx' of writer 17: {fmt_bytes(entry.nbytes)} "
        f"from {[p for p, e in reader.locate('bx') if e.writer == 17][0]} "
        f"in {seconds:.2f} s (simulated)"
    )

    # Characteristics query: which blocks could contain |B| > 1.9?
    hot = reader.query_value_range("bx", 1.9, 2.0)
    print(
        f"blocks possibly containing bx in [1.9, 2.0]: "
        f"{len(hot)} of {len(res.index.lookup('bx'))} "
        f"(pruned by min/max characteristics without reading data)"
    )


if __name__ == "__main__":
    main()
