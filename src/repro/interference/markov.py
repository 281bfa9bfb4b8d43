"""Markov-modulated external load on storage targets.

The statistical model behind production-system noise.  Two layers
multiply together into each OST's load multiplier:

* a **global chain** — system-wide busy periods (another petascale job
  dumping restart data slows the whole scratch system), responsible
  for most of the sample-to-sample CoV of aggregate bandwidth; and
* **per-OST chains** — localized hot spots (an analysis cluster
  rereading a file resident on a handful of targets), responsible for
  the intra-sample imbalance between fastest and slowest writers that
  Fig. 3 shows and that adaptive IO exploits.

Multipliers are drawn log-uniformly within each state's band, so a
"hot" OST is not a fixed penalty but a distribution — two samples
minutes apart can look completely different, the transience the paper
emphasizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from repro.machines.base import Machine

__all__ = ["LoadState", "MarkovLoadModel"]


@dataclass(frozen=True)
class LoadState:
    """One state of a load chain.

    Parameters
    ----------
    name:
        Label ("quiet", "busy", "storm").
    mult_low, mult_high:
        Log-uniform band of the load multiplier while in this state
        (1.0 means no external traffic).
    mean_dwell:
        Mean sojourn time, seconds (exponentially distributed).
    """

    name: str
    mult_low: float
    mult_high: float
    mean_dwell: float

    def __post_init__(self):
        if not 0 < self.mult_low <= self.mult_high <= 1.0:
            raise ValueError(
                f"state {self.name!r}: need 0 < low <= high <= 1"
            )
        if self.mean_dwell <= 0:
            raise ValueError(f"state {self.name!r}: mean_dwell must be > 0")

    def draw_multiplier(self, rng: np.random.Generator) -> float:
        lo, hi = np.log(self.mult_low), np.log(self.mult_high)
        return float(np.exp(rng.uniform(lo, hi)))


class MarkovLoadModel:
    """A continuous-time Markov chain over :class:`LoadState` s.

    Parameters
    ----------
    states:
        The chain's states.
    transitions:
        Row-stochastic jump matrix: ``transitions[i][j]`` is the
        probability of jumping to state *j* when leaving state *i*.
    """

    def __init__(
        self,
        states: Sequence[LoadState],
        transitions: Sequence[Sequence[float]],
    ):
        self.states: List[LoadState] = list(states)
        if not self.states:
            raise ValueError("need at least one state")
        P = np.asarray(transitions, dtype=np.float64)
        n = len(self.states)
        if P.shape != (n, n):
            raise ValueError(f"transition matrix must be {n}x{n}")
        if (P < 0).any():
            raise ValueError("transition probabilities must be >= 0")
        if not np.allclose(P.sum(axis=1), 1.0):
            raise ValueError("transition matrix rows must sum to 1")
        self.P = P
        self._stationary: Optional[np.ndarray] = None

    # -- stationary analysis ----------------------------------------------
    def stationary_distribution(self) -> np.ndarray:
        """Long-run fraction of *time* spent in each state.

        Combines the embedded jump chain's stationary vector with the
        mean dwell times (time-weighted, not jump-weighted).  Computed
        once per model; every chain start reads the same vector.
        """
        if self._stationary is None:
            self._stationary = self._solve_stationary()
            self._stationary.flags.writeable = False
        return self._stationary

    def _solve_stationary(self) -> np.ndarray:
        n = len(self.states)
        if n == 1:
            return np.ones(1)
        # Stationary vector of the embedded chain: pi P = pi.
        A = np.vstack([self.P.T - np.eye(n), np.ones(n)])
        b = np.zeros(n + 1)
        b[-1] = 1.0
        pi_jump, *_ = np.linalg.lstsq(A, b, rcond=None)
        pi_jump = np.clip(pi_jump, 0, None)
        dwell = np.array([s.mean_dwell for s in self.states])
        w = pi_jump * dwell
        return w / w.sum()

    def sample_stationary_state(self, rng: np.random.Generator) -> int:
        return int(rng.choice(len(self.states),
                              p=self.stationary_distribution()))

    def sample_stationary_multipliers(
        self, n: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Draw *n* independent stationary multipliers (one per OST).

        This is how multi-sample experiments initialize each sample:
        hourly IOR probes see the chain at a random phase, which is
        exactly a stationary draw.
        """
        pi = self.stationary_distribution()
        idx = rng.choice(len(self.states), size=n, p=pi)
        out = np.empty(n)
        for i, s in enumerate(idx):
            out[i] = self.states[s].draw_multiplier(rng)
        return out

    # -- live evolution ----------------------------------------------------
    def run_chain(
        self,
        machine: "Machine",
        apply,
        rng: np.random.Generator,
        initial_state: Optional[int] = None,
    ):
        """A simulation process evolving one chain instance.

        ``apply(multiplier)`` is invoked on every state entry — the
        caller decides whether the multiplier drives one OST or the
        global modulator.
        """
        env = machine.env
        state = (
            self.sample_stationary_state(rng)
            if initial_state is None
            else initial_state
        )
        while True:
            st = self.states[state]
            apply(st.draw_multiplier(rng))
            dwell = float(rng.exponential(st.mean_dwell))
            yield env.timeout(dwell)
            state = int(rng.choice(len(self.states), p=self.P[state]))


def per_ost_chain() -> MarkovLoadModel:
    """Default per-OST hot-spot chain.

    ~85% of time quiet, ~11% moderately busy, ~4% hot; hot targets run
    at 12-35% of peak.  Hot targets are *rare but deep*: on a
    512-target probe there is almost always at least one (so Fig. 3's
    slowest/fastest imbalance factors of 1.2-5 and the paper's 4.07
    average emerge), while a 160-target file often has only a couple —
    matching Fig. 3's "one slow writer out of 512" pattern rather than
    blanketing the system.
    """
    return MarkovLoadModel(
        states=[
            LoadState("quiet", 0.92, 1.00, mean_dwell=420.0),
            LoadState("busy", 0.38, 0.75, mean_dwell=60.0),
            LoadState("hot", 0.08, 0.32, mean_dwell=40.0),
        ],
        transitions=[
            [0.00, 0.75, 0.25],
            [0.70, 0.00, 0.30],
            [0.55, 0.45, 0.00],
        ],
    )


def global_chain() -> MarkovLoadModel:
    """Default system-wide modulator chain.

    Correlated busy periods — the dominant contributor to the 40-60%
    CoV of aggregate bandwidth across hourly samples in Table I.
    """
    return MarkovLoadModel(
        states=[
            LoadState("calm", 0.88, 1.00, mean_dwell=600.0),
            LoadState("busy", 0.45, 0.80, mean_dwell=420.0),
            LoadState("storm", 0.20, 0.42, mean_dwell=240.0),
        ],
        transitions=[
            [0.00, 0.80, 0.20],
            [0.65, 0.00, 0.35],
            [0.40, 0.60, 0.00],
        ],
    )


def global_chain_heavy() -> MarkovLoadModel:
    """A heavier system-wide modulator (Franklin-class systems).

    Franklin's scratch system was smaller and more oversubscribed
    than Jaguar's, and NERSC's monitoring shows correspondingly wider
    swings (Table I: CoV ~59% vs Jaguar's ~40%).  Deeper and more
    frequent storms produce that band.
    """
    return MarkovLoadModel(
        states=[
            LoadState("calm", 0.85, 1.00, mean_dwell=480.0),
            LoadState("busy", 0.35, 0.70, mean_dwell=480.0),
            LoadState("storm", 0.10, 0.30, mean_dwell=360.0),
        ],
        transitions=[
            [0.00, 0.70, 0.30],
            [0.55, 0.00, 0.45],
            [0.40, 0.60, 0.00],
        ],
    )
