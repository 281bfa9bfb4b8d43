"""Figure 2 — histograms of IO bandwidth under external interference.

Same data as Table I, shown as four bandwidth histograms: Jaguar,
Franklin, XTP with interference, XTP without.  The visual point the
paper makes: production systems (and XTP with a co-running job) show
wide, multi-modal spreads; XTP alone is a tight spike.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.harness.experiment import Scale
from repro.harness.figures import table1 as _table1
from repro.metrics.histogram import Histogram, text_histogram

__all__ = ["run", "Fig2Result"]


@dataclass
class Fig2Result:
    histograms: Dict[str, Histogram]
    source: _table1.Table1Result

    def render(self) -> str:
        titles = {
            "jaguar": "(a) Jaguar/Lustre",
            "franklin": "(b) Franklin/Lustre",
            "xtp_with_int": "(c) XTP/PanFS (with Int.)",
            "xtp_without_int": "(d) XTP/PanFS (without Int.)",
        }
        blocks = ["Fig. 2 — IO bandwidth histograms (MB/s per bin)"]
        for cond in _table1.CONDITIONS:
            hist = self.histograms[cond]
            blocks.append("")
            blocks.append(titles[cond])
            blocks.extend(
                text_histogram(hist)
            )
        return "\n".join(blocks)

    def relative_spread(self, condition: str) -> float:
        """Histogram width normalized by its mean: (highest occupied
        bin edge - lowest) / mean bandwidth.  Auto-ranged bins make
        every histogram fill its own axis, so the comparison must be
        on a common (relative-to-mean) scale."""
        h = self.histograms[condition]
        occupied = h.counts > 0
        centers = h.bin_centers()
        lo = float(centers[occupied].min())
        hi = float(centers[occupied].max())
        weights = h.counts / h.counts.sum()
        mean = float((centers * weights).sum())
        return (hi - lo) / mean if mean > 0 else float("inf")

    def to_dict(self) -> Dict:
        """Machine-readable summary (JSON-safe scalars only)."""
        return {
            "histograms": {
                cond: {
                    "edges": [float(e) for e in h.edges],
                    "counts": [int(c) for c in h.counts],
                    "relative_spread": self.relative_spread(cond),
                }
                for cond, h in self.histograms.items()
            },
            "source": self.source.to_dict(),
        }


def run(scale: "Scale | str" = Scale.SMALL, base_seed: int = 0) -> Fig2Result:
    source = _table1.run(scale, base_seed)
    histograms = {
        cond: Histogram.of([b / 1e6 for b in source.bandwidths[cond]])
        for cond in _table1.CONDITIONS
    }
    return Fig2Result(histograms=histograms, source=source)
