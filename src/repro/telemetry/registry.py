"""The metrics registry: labeled instruments over simulated time.

Four instrument kinds, deliberately few:

==========  ==========================================================
Counter     monotonically increasing count (settles, retries, bytes)
Gauge       last-written value (active flows, calendar depth)
Histogram   bucketed distribution of observations (write latencies)
Series      sim-time-stamped samples — the raw material for per-OST
            timelines in the dashboard
==========  ==========================================================

Instruments are labeled: ``registry.counter("ost.state_change",
kind="failed")`` and ``registry.series("ost.inflow", ost=17)`` are
distinct time series, exported as ``repro_ost_state_change
{kind="failed"}`` in the Prometheus text format.

Cost model (mirrors the tracer): instrumented layers hold a nullable
reference (``env.metrics``, ``fabric.metrics`` …) and skip the call
entirely when it is None — one attribute load per site when telemetry
is off.  A registry constructed with ``enabled=False`` additionally
hands out shared no-op instruments, so code holding an instrument
reference needs no branch of its own; :data:`NULL_REGISTRY` is the
canonical disabled singleton.

Like the tracer, one registry may observe several simulation runs (a
sweep builds a fresh environment per cell): both number them with the
shared :class:`~repro.session.RunSequence`, Series samples carry the
run index, and :meth:`MetricsRegistry.absorb` merges a worker
process's snapshot while re-basing its runs.  Which registry newly
built machines attach to, and how a sweep's jobs collect into it, is
the instrumentation session's business (:mod:`repro.session`).
"""

from __future__ import annotations

import json
from bisect import bisect_left
from typing import Dict, List, Optional, Tuple

from repro.session import RunSequence

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "Series",
]

LabelsKey = Tuple[Tuple[str, str], ...]


def _labels_key(labels: Dict[str, object]) -> LabelsKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class Counter:
    """Monotonic count.  ``inc`` is the only mutator."""

    __slots__ = ("name", "labels", "value")
    kind = "counter"

    def __init__(self, name: str, labels: LabelsKey = ()):
        self.name = name
        self.labels = labels
        self.value = 0.0

    def inc(self, n: float = 1.0) -> None:
        self.value += n

    def state(self):
        return self.value

    def merge(self, state) -> None:
        self.value += state


class Gauge:
    """Last-written value."""

    __slots__ = ("name", "labels", "value")
    kind = "gauge"

    def __init__(self, name: str, labels: LabelsKey = ()):
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, v: float) -> None:
        self.value = v

    def state(self):
        return self.value

    def merge(self, state) -> None:
        self.value = state  # last writer wins, like set()


# Default bucket bounds suit simulated-seconds latencies (sub-ms to
# minutes); pass explicit ``buckets`` for anything else.
_DEFAULT_BUCKETS = (0.001, 0.01, 0.1, 1.0, 10.0, 60.0, 600.0)


class Histogram:
    """Cumulative-bucket histogram (Prometheus semantics)."""

    __slots__ = ("name", "labels", "bounds", "counts", "sum", "count")
    kind = "histogram"

    def __init__(
        self,
        name: str,
        labels: LabelsKey = (),
        buckets: Tuple[float, ...] = _DEFAULT_BUCKETS,
    ):
        self.name = name
        self.labels = labels
        self.bounds = tuple(float(b) for b in buckets)
        if list(self.bounds) != sorted(set(self.bounds)):
            raise ValueError("histogram buckets must be strictly increasing")
        self.counts = [0] * (len(self.bounds) + 1)  # last = +Inf overflow
        self.sum = 0.0
        self.count = 0

    def observe(self, v: float) -> None:
        self.counts[bisect_left(self.bounds, v)] += 1
        self.sum += v
        self.count += 1

    def state(self):
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "sum": self.sum,
            "count": self.count,
        }

    def merge(self, state) -> None:
        if list(state["bounds"]) != list(self.bounds):
            raise ValueError(
                f"histogram {self.name}: bucket bounds differ across "
                "merged registries"
            )
        for i, c in enumerate(state["counts"]):
            self.counts[i] += c
        self.sum += state["sum"]
        self.count += state["count"]


class Series:
    """Sim-time-stamped samples ``(run, t, value)``.

    The registry stamps each sample with its current run index, so a
    sweep's per-cell timelines stay separable after the fact (and
    after a worker merge).
    """

    __slots__ = ("name", "labels", "samples", "_registry")
    kind = "series"

    def __init__(self, name: str, labels: LabelsKey = (),
                 registry: Optional["MetricsRegistry"] = None):
        self.name = name
        self.labels = labels
        self.samples: List[Tuple[int, float, float]] = []
        self._registry = registry

    def sample(self, t: float, v: float) -> None:
        run = self._registry.run if self._registry is not None else 0
        self.samples.append((run, t, v))

    @property
    def last(self) -> Optional[float]:
        return self.samples[-1][2] if self.samples else None

    def state(self):
        return [[r, t, v] for r, t, v in self.samples]

    def merge(self, state, run_base: int = 0) -> None:
        self.samples.extend(
            (int(r) + run_base, float(t), v) for r, t, v in state
        )


class _NullInstrument:
    """Shared do-nothing instrument handed out by a disabled registry."""

    __slots__ = ()
    name = "null"
    labels: LabelsKey = ()
    value = 0.0
    sum = 0.0
    count = 0
    samples: List[Tuple[int, float, float]] = []
    last = None

    def inc(self, n: float = 1.0) -> None:
        pass

    def set(self, v: float) -> None:
        pass

    def observe(self, v: float) -> None:
        pass

    def sample(self, t: float, v: float) -> None:
        pass


_NULL_INSTRUMENT = _NullInstrument()

_KINDS = {
    "counter": Counter,
    "gauge": Gauge,
    "histogram": Histogram,
    "series": Series,
}


class MetricsRegistry(RunSequence):
    """Creates, owns and exports instruments.

    ``enabled=False`` makes every accessor return the shared no-op
    instrument: a layer can bind instruments unconditionally and pay
    nothing at record time.  (Hot paths should still prefer the
    ``attr is None`` skip — see the module docstring.)
    """

    def __init__(self, enabled: bool = True):
        super().__init__()
        self.enabled = enabled
        self._instruments: Dict[Tuple[str, str, LabelsKey], object] = {}

    # -- lifecycle -------------------------------------------------------
    def clear(self) -> None:
        self._instruments.clear()

    def __len__(self) -> int:
        return len(self._instruments)

    # -- instrument accessors (get-or-create) ----------------------------
    def _get(self, kind: str, name: str, labels: Dict[str, object],
             **kwargs):
        if not self.enabled:
            return _NULL_INSTRUMENT
        key = (kind, name, _labels_key(labels))
        inst = self._instruments.get(key)
        if inst is None:
            if kind == "series":
                inst = Series(name, key[2], registry=self)
            else:
                inst = _KINDS[kind](name, key[2], **kwargs)
            self._instruments[key] = inst
        return inst

    def counter(self, name: str, **labels) -> Counter:
        return self._get("counter", name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get("gauge", name, labels)

    def histogram(
        self,
        name: str,
        buckets: Tuple[float, ...] = _DEFAULT_BUCKETS,
        **labels,
    ) -> Histogram:
        return self._get("histogram", name, labels, buckets=buckets)

    def series(self, name: str, **labels) -> Series:
        return self._get("series", name, labels)

    # -- queries ---------------------------------------------------------
    def instruments(self, name: Optional[str] = None) -> List[object]:
        """All instruments, optionally filtered by metric name."""
        out = [
            inst for (_k, n, _l), inst in sorted(self._instruments.items())
            if name is None or n == name
        ]
        return out

    def find(self, kind: str, name: str, **labels):
        """The instrument if it exists, else None (never creates)."""
        return self._instruments.get((kind, name, _labels_key(labels)))

    # -- snapshot / merge ------------------------------------------------
    def snapshot(self) -> dict:
        """JSON-safe dump of every instrument (and the run count)."""
        metrics = []
        for (kind, name, labels), inst in sorted(self._instruments.items()):
            metrics.append(
                {
                    "kind": kind,
                    "name": name,
                    "labels": dict(labels),
                    "state": inst.state(),
                }
            )
        return {"version": 1, "n_runs": self._n_binds, "metrics": metrics}

    def absorb(self, snap: Optional[dict]) -> None:
        """Merge a worker registry's :meth:`snapshot`.

        Counters and histograms add; gauges take the absorbed value;
        Series samples are appended with their run indices re-based
        onto this registry's sequence (same contract as
        ``Tracer.absorb``), so a parallel sweep yields the same
        one-run-per-sample structure as a serial one.
        """
        if not self.enabled or not snap:
            return
        run_base = self._rebase(max(int(snap.get("n_runs", 0)), 1))
        for m in snap.get("metrics", ()):
            kind, name = m["kind"], m["name"]
            labels = m.get("labels", {})
            if kind == "histogram":
                inst = self._get(kind, name, labels,
                                 buckets=tuple(m["state"]["bounds"]))
            else:
                inst = self._get(kind, name, labels)
            if kind == "series":
                inst.merge(m["state"], run_base=run_base)
            else:
                inst.merge(m["state"])

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.snapshot(), indent=indent, default=float)

    # -- Prometheus text exposition --------------------------------------
    def to_prometheus(self, prefix: str = "repro") -> str:
        """Text exposition format (one point in time).

        Counters export as ``<name>_total``; histograms as the
        standard ``_bucket``/``_sum``/``_count`` triplet; a Series
        exports its most recent value as a gauge (Prometheus has no
        native timeline type — the full timeline lives in the JSON
        snapshot and the dashboard).
        """
        by_name: Dict[Tuple[str, str], List[object]] = {}
        for (kind, name, _labels), inst in sorted(self._instruments.items()):
            by_name.setdefault((kind, name), []).append(inst)
        lines: List[str] = []
        for (kind, name), insts in by_name.items():
            metric = f"{prefix}_{_sanitize(name)}"
            if kind == "counter":
                metric += "_total"
            lines.append(f"# TYPE {metric} "
                         f"{'gauge' if kind == 'series' else kind}")
            for inst in insts:
                if kind == "histogram":
                    cum = 0
                    for bound, n in zip(inst.bounds, inst.counts):
                        cum += n
                        lines.append(
                            f"{metric}_bucket"
                            f"{_fmt_labels(inst.labels, le=_fmt_num(bound))}"
                            f" {cum}"
                        )
                    lines.append(
                        f"{metric}_bucket"
                        f"{_fmt_labels(inst.labels, le='+Inf')}"
                        f" {inst.count}"
                    )
                    lines.append(
                        f"{metric}_sum{_fmt_labels(inst.labels)}"
                        f" {_fmt_num(inst.sum)}"
                    )
                    lines.append(
                        f"{metric}_count{_fmt_labels(inst.labels)}"
                        f" {inst.count}"
                    )
                elif kind == "series":
                    if inst.last is None:
                        continue
                    lines.append(
                        f"{metric}{_fmt_labels(inst.labels)}"
                        f" {_fmt_num(inst.last)}"
                    )
                else:
                    lines.append(
                        f"{metric}{_fmt_labels(inst.labels)}"
                        f" {_fmt_num(inst.value)}"
                    )
        return "\n".join(lines) + ("\n" if lines else "")


def _sanitize(name: str) -> str:
    return "".join(c if c.isalnum() or c == "_" else "_" for c in name)


def _fmt_num(v: float) -> str:
    f = float(v)
    if f == int(f) and abs(f) < 1e15:
        return str(int(f))
    return repr(f)


def _fmt_labels(labels: LabelsKey, **extra: str) -> str:
    items = list(labels) + sorted(extra.items())
    if not items:
        return ""
    body = ",".join(f'{k}="{v}"' for k, v in items)
    return "{" + body + "}"


#: The canonical disabled registry: hand this to code that requires a
#: registry argument when telemetry is off.
NULL_REGISTRY = MetricsRegistry(enabled=False)
