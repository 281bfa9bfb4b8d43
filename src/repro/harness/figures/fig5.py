"""Figure 5 — Pixie3D IO performance, three data models.

Paper headline numbers this module's shape checks target:

* (a) small, 2 MB/process: adaptive ~10% better at scale (base);
  3%-35% better under interference;
* (b) large, 128 MB/process: 1% -> >350% better (base), 62% -> >430%
  (interference);
* (c) extra large, 1 GB/process: ~4.8x faster overall, consistently
  >300% once processes outnumber storage targets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.apps.pixie3d import pixie3d
from repro.harness.experiment import Scale
from repro.harness.figures.appbench import SweepResult, sweep_app

__all__ = ["run", "Fig5Result", "MODELS"]

MODELS = ("small", "large", "xl")


@dataclass
class Fig5Result:
    panels: Dict[str, SweepResult]

    def render(self) -> str:
        titles = {
            "small": "Fig. 5(a) — Pixie3D small (2 MB/process)",
            "large": "Fig. 5(b) — Pixie3D large (128 MB/process)",
            "xl": "Fig. 5(c) — Pixie3D extra large (1 GB/process)",
        }
        return "\n\n".join(
            self.panels[m].render(titles[m]) for m in MODELS
        )


def run(
    scale: "Scale | str" = Scale.SMALL,
    base_seed: int = 0,
    models=MODELS,
) -> Fig5Result:
    panels = {
        model: sweep_app(
            lambda _m=model: pixie3d(_m), scale, base_seed + i
        )
        for i, model in enumerate(models)
    }
    return Fig5Result(panels=panels)
