"""Multi-tenant QoS sweep — bandwidth contracts on the shared fabric.

The paper's external-interference measurements (Section IV) treat
competing traffic as unmanaged weather; the QoS control plane makes it
a managed resource.  This sweep quantifies the difference: N tenants
with mixed SLOs — (N-1) "victim" tenants holding reserved floors and
one "scavenger" aggressor holding a low floor and a burst ceiling —
share one machine, each running its own adaptive-IO output.

Two modes per cell:

* ``adaptive`` — raw max-min fairness, no contracts (the ablation
  baseline: exactly the shared-scratch regime the paper measured);
* ``adaptive+qos`` — the same tenants under the QoS control plane
  (token-bucket metering with idle→busy borrowing + AIMD aggressor
  throttling).

Reported per cell: the victims' p99 per-writer completion latency and
the floor-normalized Jain fairness index over per-tenant served
throughput.  QoS must win on both — bounding the victims' tail is the
contract's whole point — while degrading the aggressor *gracefully*:
zero errored writes, every throttled byte ledgered.

A resilience cross-check re-runs the largest-N QoS cell with two OST
fail-stops injected mid-run: contracts must hold within tolerance (no
victim slows more than ``_FAULT_SLOWDOWN_TOL``× its fault-free QoS
completion) and no tenant may starve.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List

import numpy as np

from repro.harness.experiment import Scale, n_samples_override, resolve_preset
from repro.harness.parallel import run_samples
from repro.harness.report import format_table

__all__ = ["run", "QosResult", "MODES", "_FAULT_SLOWDOWN_TOL"]

# Pool shape follows the repo's other sweeps (Jaguar proportions); the
# tenant mix keeps the aggressor's rank count >= the victims' combined
# so the baseline regime is genuinely aggressor-dominated.
_PRESETS = {
    Scale.SMOKE: dict(n_osts=16, cap=8, victim_ranks=8, victim_mb=96.0,
                      aggressor_ranks=32, aggressor_mb=96.0,
                      tenant_counts=(2, 3), samples=1),
    Scale.SMALL: dict(n_osts=16, cap=8, victim_ranks=8, victim_mb=192.0,
                      aggressor_ranks=48, aggressor_mb=192.0,
                      tenant_counts=(2, 3), samples=2),
    Scale.LARGE: dict(n_osts=64, cap=32, victim_ranks=32, victim_mb=192.0,
                      aggressor_ranks=192, aggressor_mb=192.0,
                      tenant_counts=(2, 3, 5), samples=3),
    Scale.PAPER: dict(n_osts=128, cap=64, victim_ranks=64,
                      victim_mb=256.0, aggressor_ranks=384,
                      aggressor_mb=256.0, tenant_counts=(2, 3, 5),
                      samples=3),
}

#: Modes compared in every cell.
MODES = ("adaptive", "adaptive+qos")

#: Fault cross-check: max tolerated victim slowdown vs the fault-free
#: QoS cell with 2 of the pool's OSTs fail-stopped mid-run.
_FAULT_SLOWDOWN_TOL = 2.5

#: OSTs fail-stopped in the resilience cross-check cell.
_FAULT_K = 2

# Contract shape (fractions of the pool's guaranteed capacity): the
# victims split a reservation pool with *mixed* weights (tenant i gets
# weight 1 + i/4 — heterogeneous SLOs, not N copies of one contract);
# the scavenger reserves little and is ceiling-capped.
_VICTIM_FLOOR_FRAC = 0.8
_AGGRESSOR_FLOOR_FRAC = 0.08
_AGGRESSOR_CEILING_FRAC = 0.15


def _contracts(n_tenants: int, pool_bw: float, guaranteed: float):
    from repro.qos import TenantContract

    n_victims = n_tenants - 1
    weights = np.array([1.0 + 0.25 * i for i in range(n_victims)])
    victim_pool = _VICTIM_FLOOR_FRAC * guaranteed
    floors = victim_pool * weights / weights.sum()
    contracts = [
        TenantContract(f"victim{i}", floor=float(floors[i]))
        for i in range(n_victims)
    ]
    contracts.append(
        TenantContract(
            "scavenger",
            floor=_AGGRESSOR_FLOOR_FRAC * guaranteed,
            ceiling=_AGGRESSOR_CEILING_FRAC * pool_bw,
        )
    )
    return tuple(contracts)


def _tenant_jobs(n_tenants: int, victim_ranks: int, victim_mb: float,
                 aggressor_ranks: int, aggressor_mb: float):
    from repro.apps import AppKernel, Variable
    from repro.core.transports import AdaptiveTransport
    from repro.qos import TenantJob
    from repro.units import MB

    def app(name: str, mb: float):
        return AppKernel(name, [Variable("x", shape=(int(mb * MB / 8),))])

    jobs = [
        TenantJob(f"victim{i}", AdaptiveTransport(),
                  app("victim", victim_mb), victim_ranks)
        for i in range(n_tenants - 1)
    ]
    jobs.append(
        TenantJob("scavenger", AdaptiveTransport(),
                  app("scavenger", aggressor_mb), aggressor_ranks)
    )
    return jobs


def _mode_metrics(result, floors: np.ndarray) -> Dict[str, float]:
    """JSON-safe scalars for one multi-tenant run."""
    victims = result.outcomes[:-1]
    aggressor = result.outcomes[-1]
    durations = np.concatenate(
        [o.per_writer_durations for o in victims]
    )
    served = sum(o.served_bytes for o in result.outcomes)
    throttled = sum(o.throttled_bytes for o in result.outcomes)
    errored = sum(0 if o.clean else 1 for o in result.outcomes)
    return {
        "victim_p99_seconds": float(np.percentile(durations, 99)),
        "victim_mean_seconds": float(durations.mean()),
        "jain_index": float(result.fairness(floors)),
        "makespan_seconds": float(result.makespan),
        "aggressor_completion_seconds": float(
            aggressor.completion_seconds
        ),
        "served_gb": served / 1e9,
        "throttled_gb": throttled / 1e9,
        "errored_tenants": float(errored),
        "clean": 1.0 if result.clean else 0.0,
    }


def _one_cell(seed: int, n_tenants: int, n_osts: int, cap: int,
              victim_ranks: int, victim_mb: float, aggressor_ranks: int,
              aggressor_mb: float, fault_check: bool
              ) -> Dict[str, float]:
    """One N-tenant sample: baseline, QoS, and (optionally) QoS+faults.

    All three runs share the seed, so the only differences are the
    contract set and the injected failures.
    """
    from repro.faults import FaultEvent, FaultPlan
    from repro.machines import jaguar
    from repro.qos import QosConfig, run_tenants

    spec = jaguar(n_osts=n_osts).with_overrides(max_stripe_count=cap)
    n_ranks = victim_ranks * (n_tenants - 1) + aggressor_ranks

    def build(faults=None):
        return spec.build(n_ranks=n_ranks, seed=seed, faults=faults)

    def jobs():
        return _tenant_jobs(n_tenants, victim_ranks, victim_mb,
                            aggressor_ranks, aggressor_mb)

    pool_bw = n_osts * spec.ost_config.drain_peak
    config = QosConfig(
        contracts=_contracts(n_tenants, pool_bw, 0.8 * pool_bw)
    )
    floors = config.floors()

    base = run_tenants(build(), jobs())
    qos = run_tenants(build(), jobs(), qos=config)

    out: Dict[str, float] = {}
    for prefix, result in (("base", base), ("qos", qos)):
        for key, value in _mode_metrics(result, floors).items():
            out[f"{prefix}_{key}"] = value

    if not fault_check:
        return out

    # Resilience cross-check: fail 2 OSTs while the *victims* are
    # still mid-write (the makespan is scavenger-dominated, so anchor
    # on the slowest victim's fault-free completion); contracts must
    # hold within tolerance and every tenant must still complete
    # durably (backpressure, not errors).
    victim_done = max(o.completion_seconds for o in qos.outcomes[:-1])
    fail_at = max(0.5 * victim_done, 1e-3)
    plan = FaultPlan(
        events=tuple(
            FaultEvent(time=fail_at, kind="ost_fail",
                       target=(i * n_osts) // _FAULT_K)
            for i in range(_FAULT_K)
        )
    ).with_policy(run_timeout=max(120.0, 50.0 * qos.makespan))
    faulted = run_tenants(build(faults=plan), jobs(), qos=config)
    for key, value in _mode_metrics(faulted, floors).items():
        out[f"fault_{key}"] = value
    # Worst per-tenant slowdown vs the fault-free QoS run — the
    # "contracts hold within tolerance" number the bench gates on.
    slowdowns = [
        f.completion_seconds / q.completion_seconds
        for f, q in zip(faulted.outcomes, qos.outcomes)
        if q.completion_seconds > 0
    ]
    out["fault_max_slowdown"] = float(max(slowdowns))
    out["fault_starved_tenants"] = float(
        sum(1 for o in faulted.outcomes if o.served_bytes <= 0)
    )
    return out


@dataclass
class QosResult:
    """Mean per-(N, mode) metrics plus the fault cross-check."""

    preset: Dict[str, float]
    n_samples: int
    tenant_counts: List[int]
    cells: Dict[int, Dict[str, Dict[str, float]]] = field(
        default_factory=dict
    )  # n_tenants -> mode prefix -> mean metrics
    fault_check: Dict[str, float] = field(default_factory=dict)

    def metric(self, n_tenants: int, mode: str, key: str) -> float:
        return self.cells[n_tenants][mode][key]

    @property
    def headline(self) -> Dict[str, Dict[str, float]]:
        """The largest-N cell — the committed gate numbers."""
        return self.cells[max(self.tenant_counts)]

    def render(self) -> str:
        rows = []
        for n in self.tenant_counts:
            for mode, prefix in (("adaptive", "base"),
                                 ("adaptive+qos", "qos")):
                c = self.cells[n][prefix]
                rows.append((
                    n,
                    mode,
                    c["victim_p99_seconds"],
                    c["jain_index"],
                    c["makespan_seconds"],
                    c["throttled_gb"],
                    int(c["errored_tenants"]),
                ))
        table = format_table(
            ["tenants", "mode", "victim p99 (s)", "Jain (floor-norm)",
             "makespan (s)", "throttled (GB)", "errored"],
            rows,
            title=(
                "Multi-tenant QoS — victim tail latency and fairness, "
                f"{int(self.preset['n_osts'])} OSTs, "
                f"{int(self.preset['victim_ranks'])} ranks/victim + "
                f"{int(self.preset['aggressor_ranks'])}-rank scavenger, "
                f"{self.preset['victim_mb']:.0f}/"
                f"{self.preset['aggressor_mb']:.0f} MB/proc"
            ),
        )
        if not self.fault_check:
            return table
        f = self.fault_check
        frows = [(
            f"{_FAULT_K} OST fail-stops",
            f["fault_victim_p99_seconds"],
            f["fault_jain_index"],
            f["fault_max_slowdown"],
            int(f["fault_starved_tenants"]),
            int(f["fault_errored_tenants"]),
        )]
        return table + "\n\n" + format_table(
            ["fault cell", "victim p99 (s)", "Jain", "max slowdown",
             "starved", "errored"],
            frows,
            title=(
                "QoS resilience cross-check — contracts under mid-run "
                f"OST failure (tolerance {_FAULT_SLOWDOWN_TOL:.1f}x)"
            ),
        )

    def failure_report(self) -> List[str]:
        """Cells violating the QoS contract story."""
        problems: List[str] = []
        for n in self.tenant_counts:
            base = self.cells[n]["base"]
            qos = self.cells[n]["qos"]
            # A tie is tolerated here (toy presets can saturate both
            # modes); the benchmark asserts strict improvement at the
            # gated scales.
            if qos["victim_p99_seconds"] > base["victim_p99_seconds"]:
                problems.append(
                    f"N={n}: QoS victim p99 "
                    f"{qos['victim_p99_seconds']:.3f}s worse than "
                    f"baseline {base['victim_p99_seconds']:.3f}s"
                )
            if qos["jain_index"] < base["jain_index"]:
                problems.append(
                    f"N={n}: QoS Jain {qos['jain_index']:.3f} below "
                    f"baseline {base['jain_index']:.3f}"
                )
            if qos["errored_tenants"] > 0:
                problems.append(
                    f"N={n}: {int(qos['errored_tenants'])} tenant(s) "
                    "errored under QoS — degradation must be graceful"
                )
        f = self.fault_check
        if f:
            if f["fault_starved_tenants"] > 0:
                problems.append(
                    f"fault cell: {int(f['fault_starved_tenants'])} "
                    "tenant(s) starved"
                )
            if f["fault_errored_tenants"] > 0:
                problems.append(
                    f"fault cell: {int(f['fault_errored_tenants'])} "
                    "tenant(s) errored (expected in-run recovery)"
                )
            if f["fault_max_slowdown"] > _FAULT_SLOWDOWN_TOL:
                problems.append(
                    "fault cell: max tenant slowdown "
                    f"{f['fault_max_slowdown']:.2f}x exceeds the "
                    f"{_FAULT_SLOWDOWN_TOL:.1f}x contract tolerance"
                )
        return problems

    def to_dict(self) -> Dict:
        head = self.headline
        return {
            "preset": {k: float(v) for k, v in self.preset.items()},
            "n_samples": self.n_samples,
            "tenant_counts": [int(n) for n in self.tenant_counts],
            # Gate metrics at top level (bench_report --gate qos.*):
            # the QoS mode's numbers from the largest-N cell, with the
            # baseline alongside for the ratio story.
            "jain_index": head["qos"]["jain_index"],
            "victim_p99_seconds": head["qos"]["victim_p99_seconds"],
            "baseline_jain_index": head["base"]["jain_index"],
            "baseline_victim_p99_seconds":
                head["base"]["victim_p99_seconds"],
            "cells": {
                str(n): {mode: dict(m) for mode, m in by_mode.items()}
                for n, by_mode in self.cells.items()
            },
            "fault_check": dict(self.fault_check),
        }


def run(scale: "Scale | str" = Scale.SMALL,
        base_seed: int = 0) -> QosResult:
    preset = resolve_preset(_PRESETS, scale)
    n_samples = n_samples_override(preset["samples"])
    tenant_counts = list(preset["tenant_counts"])
    result = QosResult(
        preset={
            k: float(v) for k, v in preset.items()
            if k not in ("samples", "tenant_counts")
        },
        n_samples=n_samples,
        tenant_counts=tenant_counts,
    )
    largest = max(tenant_counts)
    for n in tenant_counts:
        samples = run_samples(
            partial(
                _one_cell,
                n_tenants=n,
                n_osts=preset["n_osts"],
                cap=preset["cap"],
                victim_ranks=preset["victim_ranks"],
                victim_mb=preset["victim_mb"],
                aggressor_ranks=preset["aggressor_ranks"],
                aggressor_mb=preset["aggressor_mb"],
                fault_check=(n == largest),
            ),
            n_samples,
            base_seed,
            label=f"qos[N={n}]",
        )
        keys = samples[0].keys()
        means = {
            key: float(np.mean([s[key] for s in samples]))
            for key in keys
        }
        result.cells[n] = {
            "base": {
                k[len("base_"):]: v for k, v in means.items()
                if k.startswith("base_")
            },
            "qos": {
                k[len("qos_"):]: v for k, v in means.items()
                if k.startswith("qos_")
            },
        }
        fault = {k: v for k, v in means.items() if k.startswith("fault_")}
        if fault:
            result.fault_check = fault
    return result
