"""Online straggler detection over per-OST service rates.

The paper's central observation is that a handful of laggard storage
targets dominate output time; its adaptive transport routes around
them using *observed* service.  This detector turns the same signal
into an explicit online flag stream:

* each OST carries an **EWMA** of its per-stream service rate
  (allocated inflow divided by active streams — what one writer
  actually gets from that target), updated at every sample;
* across OSTs the EWMAs are compared with a **robust z-score**
  (median / MAD, the 0.6745 factor making MAD sigma-consistent for
  normal data), so a minority of laggards cannot drag the baseline
  the way a mean/stddev score would let them;
* an OST is flagged when its z-score sits below ``-z_threshold`` AND
  its rate is below ``deficit`` of the pool median — the second
  condition keeps a tightly-packed pool (tiny MAD) from flagging
  noise-level variation;
* only OSTs serving at least one stream are judged, against each
  other: an idle target's EWMA is a stale reading from its last busy
  spell, so it neither enters the baseline nor changes its flag.

Flags are computed online: transports (and the auto-tuning hook that
ROADMAP item 3 plans) may call :meth:`StragglerDetector.is_straggler`
/ :meth:`stragglers` mid-run.  Flag *transitions* are recorded so the
dashboard can annotate when each OST went bad.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

import numpy as np

__all__ = ["StragglerDetector"]

# MAD -> sigma consistency constant for the normal distribution.
_MAD_SIGMA = 0.6745


class StragglerDetector:
    """EWMA + robust z-score flagging of slow storage targets.

    ``n_osts`` is the pool size (index space of every update/query).
    """

    #: EWMA smoothing factor in (0, 1]; higher reacts faster.
    alpha = 0.3
    #: Flag when the robust z-score drops below ``-z_threshold``.
    z_threshold = 3.5
    #: Additional guard: the OST's EWMA must also be below
    #: ``deficit * median`` — z-scores explode when the pool is nearly
    #: uniform (MAD -> 0) and this keeps those non-events unflagged.
    deficit = 0.7
    #: EWMA updates an OST must have seen before it can be flagged (or
    #: counted in the baseline).
    min_samples = 3

    def __init__(self, n_osts: int):
        if n_osts < 1:
            raise ValueError("n_osts must be >= 1")
        self.n_osts = n_osts
        self.ewma = np.zeros(n_osts)
        self.n_updates = np.zeros(n_osts, dtype=np.int64)
        self._z = np.zeros(n_osts)
        self._flagged = np.zeros(n_osts, dtype=bool)
        self.first_flag_time: Dict[int, float] = {}
        #: (t, ost, flagged) transitions, for dashboard annotations.
        self.transitions: List[Tuple[float, int, bool]] = []

    # -- online update ---------------------------------------------------
    def update(self, t: float, rates: np.ndarray,
               active: np.ndarray) -> None:
        """Fold one sample of per-OST service rates.

        ``rates`` is the per-stream service rate per OST; ``active``
        masks the OSTs currently serving at least one stream — idle
        targets are neither updated nor judged (an OST nobody writes
        to is not slow, it is unused).
        """
        rates = np.asarray(rates, dtype=np.float64)
        active = np.asarray(active, dtype=bool)
        if rates.shape != (self.n_osts,) or active.shape != (self.n_osts,):
            raise ValueError("rates/active must have one entry per OST")
        idx = np.nonzero(active)[0]
        if idx.size == 0:
            return
        first = self.n_updates[idx] == 0
        a = self.alpha
        self.ewma[idx] = np.where(
            first, rates[idx], (1 - a) * self.ewma[idx] + a * rates[idx]
        )
        self.n_updates[idx] += 1
        self._rescore(t, active)

    def _rescore(self, t: float, active: np.ndarray) -> None:
        judged = np.nonzero(active & (self.n_updates >= self.min_samples))[0]
        self._z[:] = 0.0
        new_flags = self._flagged & ~active
        if judged.size >= 3:
            vals = self.ewma[judged]
            med = float(np.median(vals))
            mad = float(np.median(np.abs(vals - med)))
            if med > 0:
                # Floor the MAD so a near-uniform pool cannot produce
                # infinite z-scores out of float dust.
                mad = max(mad, 1e-6 * med)
                z = _MAD_SIGMA * (vals - med) / mad
                self._z[judged] = z
                new_flags[judged] = (z < -self.z_threshold) & (
                    vals < self.deficit * med
                )
        went_bad = np.nonzero(new_flags & ~self._flagged)[0]
        recovered = np.nonzero(self._flagged & ~new_flags)[0]
        for i in went_bad:
            i = int(i)
            self.first_flag_time.setdefault(i, t)
            self.transitions.append((t, i, True))
        for i in recovered:
            self.transitions.append((t, int(i), False))
        self._flagged = new_flags

    # -- queries (safe to call mid-run) ----------------------------------
    def is_straggler(self, ost: int) -> bool:
        return bool(self._flagged[int(ost)])

    def stragglers(self) -> Set[int]:
        """Currently-flagged OST indices."""
        return {int(i) for i in np.nonzero(self._flagged)[0]}

    def ever_flagged(self) -> Set[int]:
        """Every OST flagged at any point during the run."""
        return set(self.first_flag_time)

    def zscores(self) -> np.ndarray:
        """Latest robust z-score per OST (0 where not judged)."""
        return self._z.copy()

    def summary(self) -> dict:
        return {
            "flagged": sorted(self.stragglers()),
            "ever_flagged": sorted(self.ever_flagged()),
            "first_flag_time": {
                str(k): float(v)
                for k, v in sorted(self.first_flag_time.items())
            },
            "z_threshold": self.z_threshold,
        }
