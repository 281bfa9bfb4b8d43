"""Composite production noise: global x per-OST Markov load.

This module wires :mod:`repro.interference.markov` chains onto a live
machine.  It keeps the two layers' current values and pushes their
product into the OST pool whenever either changes (each push triggers
a fabric resettle, so running jobs feel the change immediately).  A
push writes only what changed: one OST for a per-OST transition, the
whole field for a global one, and one push for the instant in which
every chain enters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.interference.markov import (
    MarkovLoadModel,
    global_chain,
    global_chain_heavy,
    per_ost_chain,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.machines.base import Machine

__all__ = ["production_noise", "install_production_noise", "ProductionNoise"]


@dataclass(frozen=True)
class NoisePreset:
    """Per-machine noise intensity.

    ``per_ost`` / ``global_mod`` are the chains;
    ``intensity`` in [0, 1] linearly interpolates each drawn
    multiplier toward 1.0 (0 = no noise at all).
    """

    per_ost: MarkovLoadModel
    global_mod: MarkovLoadModel
    intensity: float = 1.0


_PRESETS = {
    # Jaguar: busy shared production scratch (Table I CoV ~ 40%).
    "jaguar": lambda: NoisePreset(per_ost_chain(), global_chain(), 1.0),
    # Franklin: smaller, even more oversubscribed system (CoV ~ 59%).
    "franklin": lambda: NoisePreset(
        per_ost_chain(), global_chain_heavy(), 1.0
    ),
    # XTP: non-production machine — negligible ambient noise.
    "xtp": lambda: NoisePreset(per_ost_chain(), global_chain(), 0.05),
    # BG/P with GPFS (future-work extension): production system,
    # moderately shared.
    "bluegene_p": lambda: NoisePreset(per_ost_chain(), global_chain(), 0.8),
}


def production_noise(machine_name: str) -> NoisePreset:
    """The noise preset for a machine name ("jaguar", "franklin", "xtp")."""
    try:
        factory = _PRESETS[machine_name]
    except KeyError:
        raise ValueError(
            f"no noise preset for {machine_name!r}; "
            f"known: {sorted(_PRESETS)}"
        ) from None
    return factory()


class ProductionNoise:
    """Live noise bound to one machine.

    The field is ``per_ost * global`` on the drain stage and
    ``per_ost * global**gamma`` on the ingest stage (see :meth:`_push`).
    :meth:`start` launches one chain per OST plus one global chain.
    All N+1 enter their first state in the same instant; each entry
    writes only its own slot, and the whole field is pushed once, when
    the last chain has entered.  After that a per-OST transition
    pushes its own OST (one pool entry, one stale sink) and a global
    transition pushes the whole field.  Every push settles the fabric
    synchronously, so a running flow never sees a stale rate.
    """

    #: Prefix of the machine RNG streams the chains draw from.
    stream = "noise"

    def __init__(self, machine: "Machine", preset: NoisePreset):
        self.machine = machine
        self.preset = preset
        n = machine.pool.n_sinks
        self._per_ost = np.ones(n)
        self._global = 1.0
        self._started = False
        # Chains still to make their first entry; the field is pushed
        # when this reaches zero.
        self._entering = 0

    def _soften(self, mult: float) -> float:
        a = self.preset.intensity
        return 1.0 - a * (1.0 - mult)

    def _push(self, ost: Optional[int] = None) -> None:
        """Push the composite field into the pool: all of it, or only
        OST ``ost``'s entry (the same floats the full push writes there).

        Both layers hit the drain (disks) at full depth.  The ingest
        (OSS/RPC) stage sees per-OST hot spots at full depth too —
        they model contention *at* that server, the mechanism behind
        Fig. 3's deep slow-writer tails — but the system-wide
        modulator only at the pool's softened exponent, since backbone
        traffic barely touches an absorbed write's RPC path.
        """
        pool = self.machine.pool
        gamma = pool.config.ingest_noise_exponent
        per = self._per_ost if ost is None else self._per_ost[ost]
        g = self._global
        pool.set_load_multiplier(per * g, osts=ost, ingest_mult=per * g**gamma)

    def _entering_batch(self) -> bool:
        """Count one chain's first entry; True while that entry belongs
        to the start's batch, whose last member pushes the whole field.
        """
        if not self._entering:
            return False
        self._entering -= 1
        if not self._entering:
            self._push()
        return True

    def _apply_global(self, mult: float) -> None:
        self._global = self._soften(mult)
        if not self._entering_batch():
            self._push()

    def _make_ost_apply(self, ost: int):
        def apply(mult: float) -> None:
            self._per_ost[ost] = self._soften(mult)
            if not self._entering_batch():
                self._push(ost)

        return apply

    def initialize_stationary(self) -> None:
        """Draw the initial field from the stationary distributions.

        Multi-sample experiments call only this (one draw per sample);
        :meth:`start` additionally evolves the field over time.
        """
        rngs = self.machine.rngs
        n = self.machine.pool.n_sinks
        per = self.preset.per_ost.sample_stationary_multipliers(
            n, rngs.get(f"{self.stream}.per_ost.init")
        )
        g = self.preset.global_mod.sample_stationary_multipliers(
            1, rngs.get(f"{self.stream}.global.init")
        )[0]
        soften = np.vectorize(self._soften)
        self._per_ost = soften(per)
        self._global = self._soften(g)
        self._push()

    def start(self) -> None:
        """Launch the live chains (per-OST + global) as sim processes."""
        if self._started:
            raise RuntimeError("noise already started")
        self._started = True
        m = self.machine
        rngs = m.rngs
        self._entering = m.pool.n_sinks + 1
        m.env.process(
            self.preset.global_mod.run_chain(
                m, self._apply_global, rngs.get(f"{self.stream}.global")
            ),
            name="noise.global",
        )
        for ost in range(m.pool.n_sinks):
            m.env.process(
                self.preset.per_ost.run_chain(
                    m,
                    self._make_ost_apply(ost),
                    rngs.get(f"{self.stream}.ost.{ost}"),
                ),
                name=f"noise.ost.{ost}",
            )

    def current_multipliers(self) -> np.ndarray:
        return self._per_ost * self._global


def install_production_noise(
    machine: "Machine",
    preset: Optional[NoisePreset] = None,
    live: bool = True,
) -> ProductionNoise:
    """Attach production noise to a machine and initialize it.

    ``live=False`` gives a frozen stationary draw — the right choice
    for short experiments sampled independently; ``live=True``
    additionally evolves the field during the run (needed for Fig. 3's
    "three minutes later everything changed" behaviour).
    """
    if preset is None:
        preset = production_noise(machine.spec.name)
    noise = ProductionNoise(machine, preset)
    noise.initialize_stationary()
    if live:
        noise.start()
    return noise
