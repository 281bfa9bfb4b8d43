#!/usr/bin/env python
"""Write with adaptive IO, then exercise the full read path:

1. single-lookup block reads through the global index,
2. a restart-style read of a whole variable across all sub-files,
3. value-range queries pruned by data characteristics, and
4. the interim "no global index" mode the paper describes (a
   systematic search of each file's local index), for comparison.

Run:  python examples/read_back.py
"""

from repro.apps import s3d
from repro.core import Adios
from repro.core.bp import BpReader
from repro.machines import jaguar
from repro.units import fmt_bytes

N_RANKS = 64
N_OSTS = 16


def main() -> None:
    app = s3d(grid=32, n_species=4)
    machine = jaguar(n_osts=N_OSTS).build(n_ranks=N_RANKS, seed=5)
    io = Adios(machine, method="adaptive")
    res = io.write_output(app, name="s3d.chk")
    print(
        f"wrote {fmt_bytes(res.total_bytes)} over {len(res.files)} files "
        f"({res.index.n_blocks} indexed blocks, "
        f"{len(res.index.variables)} variables)\n"
    )

    reader = BpReader(machine.fs, res.index)

    # 1. Single-block read.
    proc = machine.env.process(
        reader.read_block(node=0, var="temp", writer=42)
    )
    entry, secs = machine.env.run(until=proc)
    print(
        f"block read: temp of writer 42 -> {fmt_bytes(entry.nbytes)} "
        f"at offset {entry.offset:.0f} in {secs:.3f} s"
    )

    # 2. Restart read of a full variable.
    proc = machine.env.process(reader.read_variable(node=0, var="pressure"))
    nbytes, secs = machine.env.run(until=proc)
    print(f"variable read: pressure -> {fmt_bytes(nbytes)} in {secs:.2f} s")

    # 3. Characteristics-based pruning.
    total = len(res.index.lookup("temp"))
    hot = reader.query_value_range("temp", 2200.0, 2500.0)
    print(
        f"query temp in [2200, 2500] K: {len(hot)}/{total} candidate "
        f"blocks after min/max pruning"
    )

    # 4. The interim mode: search every file's local index instead.
    scanning_reader = BpReader(
        machine.fs, index=None,
        files=[p for p in res.files if "index" not in p],
    )
    hits = [h for h in scanning_reader.locate("temp") if h[1].writer == 42]
    print(
        f"no-global-index mode: scanned "
        f"{len(scanning_reader.files)} file indices to find the same "
        f"block ({hits[0][0]})"
    )


if __name__ == "__main__":
    main()
