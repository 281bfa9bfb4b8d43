"""Figure 7 — standard deviation of write time, four panels.

"The graphs ... show the standard deviation of the write times for
each of the 4 cases measured [Pixie3D small/large/XL + XGC1].  Here,
the absolute numbers are less important than the fact that for all
cases, once the caches on the storage targets start to be taxed,
adaptive IO reduces variability."

The std is over repeated samples of the reported (write+flush+close)
time at each process count, per transport.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.apps.pixie3d import pixie3d
from repro.apps.xgc1 import xgc1
from repro.harness.experiment import Scale
from repro.harness.figures.appbench import SweepResult, sweep_app
from repro.harness.report import format_table

__all__ = ["run", "Fig7Result", "CASES"]

CASES = ("pixie3d.small", "pixie3d.large", "pixie3d.xl", "xgc1")


@dataclass
class Fig7Result:
    sweeps: Dict[str, SweepResult]
    condition: str = "base"

    def std_rows(self, case: str):
        sweep = self.sweeps[case]
        rows = []
        for n in sweep.config.proc_counts:
            rows.append(
                (
                    n,
                    sweep.time_std("mpiio", self.condition, n),
                    sweep.time_std("adaptive", self.condition, n),
                )
            )
        return rows

    def adaptive_less_variable_at_scale(self, case: str) -> bool:
        """The claim: at the largest process count (caches taxed),
        adaptive's write-time std is below MPI-IO's."""
        rows = self.std_rows(case)
        n, mpi_std, ad_std = rows[-1]
        return ad_std <= mpi_std

    def render(self) -> str:
        titles = {
            "pixie3d.small": "(a) Pixie3D Small",
            "pixie3d.large": "(b) Pixie3D Large",
            "pixie3d.xl": "(c) Pixie3D Extra Large",
            "xgc1": "(d) XGC1",
        }
        blocks = ["Fig. 7 — standard deviation of write time (s)"]
        for case in CASES:
            if case not in self.sweeps:
                continue
            blocks.append("")
            blocks.append(
                format_table(
                    ["procs", "MPI-IO std", "adaptive std"],
                    self.std_rows(case),
                    title=titles[case],
                )
            )
        return "\n".join(blocks)


def run(
    scale: "Scale | str" = Scale.SMALL,
    base_seed: int = 0,
    precomputed: Optional[Dict[str, SweepResult]] = None,
    cases=CASES,
) -> Fig7Result:
    """Build Fig. 7; pass ``precomputed`` sweeps (e.g. from fig5/fig6
    runs) to avoid redoing them."""
    sweeps: Dict[str, SweepResult] = dict(precomputed or {})
    factories = {
        "pixie3d.small": lambda: pixie3d("small"),
        "pixie3d.large": lambda: pixie3d("large"),
        "pixie3d.xl": lambda: pixie3d("xl"),
        "xgc1": xgc1,
    }
    for i, case in enumerate(cases):
        if case not in sweeps:
            sweeps[case] = sweep_app(factories[case], scale, base_seed + i)
    return Fig7Result(sweeps=sweeps)
