"""Figure 3 — imbalanced concurrent writers (transient interference).

Paper setup: two external-interference samples of the 128 MB-per-
process Jaguar IOR test, taken three minutes apart.  Test 1 shows an
imbalance factor (slowest/fastest writer time) of 3.44; Test 2, run
180 s later, only 1.22 — the interference is transient.  Across all
their tests the average imbalance factor is 4.07.

Here both probes run inside ONE live simulation (the Markov field
evolves between them), so the pair genuinely samples the same system
three minutes apart.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List

import numpy as np

from repro.harness.experiment import Scale, n_samples_override, resolve_preset
from repro.harness.parallel import run_samples
from repro.harness.report import format_table
from repro.interference import install_production_noise
from repro.ior import IorConfig, run_ior
from repro.machines import jaguar
from repro.metrics.timeline import WriterTimeline
from repro.units import MB

__all__ = ["run", "Fig3Result"]

_PRESETS = {
    Scale.SMOKE: dict(n_osts=16, n_pairs=1),
    Scale.SMALL: dict(n_osts=96, n_pairs=8),
    Scale.PAPER: dict(n_osts=512, n_pairs=30),
}


@dataclass
class Fig3Result:
    test1: WriterTimeline
    test2: WriterTimeline
    all_imbalance_factors: List[float] = field(default_factory=list)

    @property
    def imbalance_test1(self) -> float:
        return self.test1.imbalance_factor

    @property
    def imbalance_test2(self) -> float:
        return self.test2.imbalance_factor

    @property
    def mean_imbalance(self) -> float:
        return float(np.mean(self.all_imbalance_factors))

    def render(self) -> str:
        rows = [
            ("Test 1", self.test1.n_writers, self.test1.fastest,
             self.test1.slowest, self.imbalance_test1),
            ("Test 2 (+3 min)", self.test2.n_writers, self.test2.fastest,
             self.test2.slowest, self.imbalance_test2),
        ]
        table = format_table(
            ["Sample", "writers", "fastest (s)", "slowest (s)",
             "imbalance"],
            rows,
            title="Fig. 3 — imbalanced concurrent writers (128 MB/proc)",
        )
        return (
            table
            + f"\n\nMean imbalance factor over "
            f"{len(self.all_imbalance_factors)} samples: "
            f"{self.mean_imbalance:.2f} (paper: 4.07)"
        )

    def to_dict(self) -> Dict:
        """Machine-readable summary (JSON-safe scalars only)."""
        return {
            "test1": {
                "n_writers": self.test1.n_writers,
                "fastest": self.test1.fastest,
                "slowest": self.test1.slowest,
                "imbalance": self.imbalance_test1,
            },
            "test2": {
                "n_writers": self.test2.n_writers,
                "fastest": self.test2.fastest,
                "slowest": self.test2.slowest,
                "imbalance": self.imbalance_test2,
            },
            "mean_imbalance": self.mean_imbalance,
            "all_imbalance_factors": [
                float(f) for f in self.all_imbalance_factors
            ],
        }


def _one_pair(seed: int, n_osts: int):
    """Two probes three minutes apart on one live machine."""
    machine = jaguar(n_osts=n_osts).build(n_ranks=n_osts, seed=seed)
    install_production_noise(machine, live=True)
    cfg = IorConfig(
        n_writers=n_osts, block_size=128 * MB, api="posix",
        n_osts_used=n_osts,
    )
    res1 = run_ior(machine, cfg, output_name="probe1")
    # "Test 2 took place only 3 minutes later than Test 1."
    wait = machine.env.process(_sleep(machine.env, 180.0))
    machine.env.run(until=wait)
    res2 = run_ior(machine, cfg, output_name="probe2")
    return (
        WriterTimeline.of(res1.per_writer),
        WriterTimeline.of(res2.per_writer),
    )


def _sleep(env, seconds: float):
    yield env.timeout(seconds)


def run(scale: "Scale | str" = Scale.SMALL, base_seed: int = 0) -> Fig3Result:
    preset = resolve_preset(_PRESETS, scale)
    pairs = run_samples(
        partial(_one_pair, n_osts=preset["n_osts"]),
        n_samples_override(preset["n_pairs"]),
        base_seed,
        label=f"fig3[{preset['n_osts']}osts]",
    )
    factors: List[float] = []
    for t1, t2 in pairs:
        factors.append(t1.imbalance_factor)
        factors.append(t2.imbalance_factor)
    # Display pair: the one with the biggest contrast between its two
    # probes (the paper picked a striking example on purpose).
    show = max(
        pairs,
        key=lambda p: abs(p[0].imbalance_factor - p[1].imbalance_factor),
    )
    return Fig3Result(
        test1=show[0], test2=show[1], all_imbalance_factors=factors
    )
