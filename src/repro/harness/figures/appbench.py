"""Shared engine for the Section-IV application benchmarks (Figs 5-7).

One sweep = {MPI-IO, adaptive} x {base, interference} x process
counts x samples, against a Jaguar-like machine:

* the MPI-IO transport writes one shared file capped at the Lustre
  stripe limit (160 on the real machine, scaled on smaller presets);
* adaptive uses its larger target set (512 of 672 in the paper);
* "base" runs under ambient production noise ("whatever other
  simultaneous jobs happen to be running");
* "interference" adds the paper's artificial program: 24 processes,
  three per OST, continuously writing 1 GB each over 8 targets.

Reported time is write + flush + close, open excluded — the paper's
protocol.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, Dict, List, Tuple

import numpy as np

from repro.apps.base import AppKernel
from repro.core.transports import AdaptiveTransport, MpiIoTransport
from repro.harness.experiment import Scale, n_samples_override, resolve_preset
from repro.harness.parallel import run_samples
from repro.harness.report import format_table
from repro.interference import (
    BackgroundWriterJob,
    install_production_noise,
)
from repro.machines import jaguar
from repro.metrics.stats import summarize
from repro.units import GB

__all__ = ["SweepConfig", "SweepResult", "sweep_app", "preset_for"]

TRANSPORTS = ("mpiio", "adaptive")
CONDITIONS = ("base", "interference")


@dataclass(frozen=True)
class SweepConfig:
    """Machine/sweep sizing for one scale preset."""

    pool_osts: int
    adaptive_osts: int
    stripe_cap: int
    proc_counts: Tuple[int, ...]
    n_samples: int


_PRESETS: Dict[Scale, SweepConfig] = {
    Scale.SMOKE: SweepConfig(
        pool_osts=12, adaptive_osts=8, stripe_cap=4,
        proc_counts=(8, 32), n_samples=1,
    ),
    Scale.SMALL: SweepConfig(
        pool_osts=84, adaptive_osts=64, stripe_cap=20,
        proc_counts=(64, 256, 1024), n_samples=3,
    ),
    # Full machine, one cell: the paper's 672-OST pool at 8192 procs,
    # one sample per (transport, condition).  Proves the fabric sustains
    # a full-scale cell, not a statistics run.
    Scale.LARGE: SweepConfig(
        pool_osts=672, adaptive_osts=512, stripe_cap=160,
        proc_counts=(8192,), n_samples=1,
    ),
    Scale.PAPER: SweepConfig(
        pool_osts=672, adaptive_osts=512, stripe_cap=160,
        proc_counts=(512, 2048, 8192, 16384), n_samples=5,
    ),
    # Beyond-Jaguar projection: a ~5000-OST pool (the paper's Spider
    # deployment grown one order) with 64k writers.  Only feasible
    # because the batched protocol's cost scales with groups x OSTs,
    # not writers x writes.
    Scale.EXA: SweepConfig(
        pool_osts=5000, adaptive_osts=4096, stripe_cap=160,
        proc_counts=(65536,), n_samples=1,
    ),
}


def preset_for(scale: "Scale | str") -> SweepConfig:
    return resolve_preset(_PRESETS, scale)


@dataclass
class CellSample:
    """One run's summary."""

    reported_time: float
    bandwidth: float
    imbalance: float
    n_adaptive_writes: int


@dataclass
class SweepResult:
    app_name: str
    per_process_bytes: float
    config: SweepConfig
    cells: Dict[Tuple[str, str, int], List[CellSample]] = field(
        default_factory=dict
    )

    # -- accessors ---------------------------------------------------------
    def bandwidths(self, transport: str, condition: str, n: int):
        return [s.bandwidth for s in self.cells[(transport, condition, n)]]

    def times(self, transport: str, condition: str, n: int):
        return [
            s.reported_time for s in self.cells[(transport, condition, n)]
        ]

    def mean_bandwidth(self, transport: str, condition: str, n: int) -> float:
        return float(np.mean(self.bandwidths(transport, condition, n)))

    def max_bandwidth(self, transport: str, condition: str, n: int) -> float:
        return float(np.max(self.bandwidths(transport, condition, n)))

    def speedup(self, condition: str, n: int) -> float:
        """adaptive over MPI-IO, mean bandwidth."""
        return self.mean_bandwidth(
            "adaptive", condition, n
        ) / self.mean_bandwidth("mpiio", condition, n)

    def time_std(self, transport: str, condition: str, n: int) -> float:
        return summarize(self.times(transport, condition, n)).std

    def to_dict(self) -> Dict:
        """Machine-readable summary (JSON-safe scalars only)."""
        cells = []
        for (tname, cond, n), samples in sorted(self.cells.items()):
            cells.append(
                {
                    "transport": tname,
                    "condition": cond,
                    "n_procs": n,
                    "mean_bandwidth": self.mean_bandwidth(tname, cond, n),
                    "max_bandwidth": self.max_bandwidth(tname, cond, n),
                    "time_std": self.time_std(tname, cond, n),
                    "times": [float(s.reported_time) for s in samples],
                    "n_adaptive_writes": [
                        int(s.n_adaptive_writes) for s in samples
                    ],
                }
            )
        speedups = {
            f"{cond}@{n}": self.speedup(cond, n)
            for n in self.config.proc_counts
            for cond in CONDITIONS
            if ("adaptive", cond, n) in self.cells
            and ("mpiio", cond, n) in self.cells
        }
        return {
            "app": self.app_name,
            "per_process_bytes": float(self.per_process_bytes),
            "config": {
                "pool_osts": self.config.pool_osts,
                "adaptive_osts": self.config.adaptive_osts,
                "stripe_cap": self.config.stripe_cap,
                "proc_counts": list(self.config.proc_counts),
                "n_samples": self.config.n_samples,
            },
            "cells": cells,
            "speedups": speedups,
        }

    def render(self, title: str) -> str:
        rows = []
        for n in self.config.proc_counts:
            for cond in CONDITIONS:
                rows.append(
                    (
                        n,
                        cond,
                        self.mean_bandwidth("mpiio", cond, n) / 1e9,
                        self.max_bandwidth("mpiio", cond, n) / 1e9,
                        self.mean_bandwidth("adaptive", cond, n) / 1e9,
                        self.max_bandwidth("adaptive", cond, n) / 1e9,
                        self.speedup(cond, n),
                    )
                )
        return format_table(
            [
                "procs",
                "condition",
                "MPI avg GB/s",
                "MPI max",
                "adaptive avg GB/s",
                "adaptive max",
                "speedup",
            ],
            rows,
            title=title,
        )


def _run_cell(
    app: AppKernel,
    transport_name: str,
    condition: str,
    n_procs: int,
    seed: int,
    cfg: SweepConfig,
) -> CellSample:
    spec = jaguar(n_osts=cfg.pool_osts).with_overrides(
        max_stripe_count=cfg.stripe_cap
    )
    machine = spec.build(
        n_ranks=n_procs,
        seed=seed,
        extra_service_nodes=2 if condition == "interference" else 0,
    )
    install_production_noise(machine, live=True)
    if condition == "interference":
        job = BackgroundWriterJob(
            machine,
            n_osts=min(8, cfg.pool_osts),
            writers_per_ost=3,
            write_size=1.0 * GB,
        )
        job.start()
    if transport_name == "adaptive":
        transport = AdaptiveTransport(
            n_osts_used=min(cfg.adaptive_osts, n_procs)
        )
    else:
        transport = MpiIoTransport(build_index=False)
    res = transport.run(machine, app, output_name="out")
    return CellSample(
        reported_time=res.reported_time,
        bandwidth=res.aggregate_bandwidth,
        imbalance=res.imbalance_factor,
        n_adaptive_writes=res.n_adaptive_writes,
    )


def sweep_app(
    app_factory: Callable[[], AppKernel],
    scale: "Scale | str" = Scale.SMALL,
    base_seed: int = 0,
    conditions: Tuple[str, ...] = CONDITIONS,
) -> SweepResult:
    """Run the full transport x condition x scale sweep for one app."""
    cfg = preset_for(scale)
    n_eff = n_samples_override(cfg.n_samples)
    if n_eff != cfg.n_samples:
        cfg = replace(cfg, n_samples=n_eff)
    app = app_factory()
    result = SweepResult(
        app_name=app.name,
        per_process_bytes=app.per_process_bytes,
        config=cfg,
    )
    for n_procs in cfg.proc_counts:
        for cond in conditions:
            for tname in TRANSPORTS:
                # partial over the module-level cell runner keeps the
                # sample fn picklable for the parallel executor; the
                # derived seed arrives as the remaining positional arg.
                samples = run_samples(
                    partial(_run_cell, app, tname, cond, n_procs, cfg=cfg),
                    cfg.n_samples,
                    base_seed,
                    label=f"{app.name}[{tname},{cond},{n_procs}p]",
                )
                result.cells[(tname, cond, n_procs)] = samples
    return result
