"""Figure 6 — XGC1 IO performance (38 MB/process).

"Adaptive IO shows clear advantages ... the performance improvement
ranges from 30% to greater than 224%."  Sizewise XGC1 sits between
Pixie3D's small and large models, and so does its benefit.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.apps.xgc1 import xgc1
from repro.harness.experiment import Scale
from repro.harness.figures.appbench import SweepResult, sweep_app

__all__ = ["run", "Fig6Result"]


@dataclass
class Fig6Result:
    sweep: SweepResult

    def render(self) -> str:
        return self.sweep.render(
            "Fig. 6 — XGC1 IO performance (38 MB/process)"
        )


def run(scale: "Scale | str" = Scale.SMALL, base_seed: int = 0) -> Fig6Result:
    return Fig6Result(sweep=sweep_app(xgc1, scale, base_seed))
