"""Layered wall-clock benchmark of the simulator.

Three workloads (see ``WORKLOADS.md`` for why each was chosen and what
it bypasses):

* ``xgc1_adaptive_8192`` -- XGC1 under interference on the 672-OST
  Jaguar pool, batched adaptive IO over 512 targets, 8192 procs;
* ``xgc1_mpiio_8192`` -- the same cell with the MPI-IO transport;
* ``tenants5_qos_faulted`` -- the QoS sweep's N=5 cell: no-QoS
  baseline, QoS, then QoS with two OST fail-stops.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload xgc1_adaptive_8192 --seed 1 \\
        --seconds 20 --trace 0

One run is one process.  It imports the simulator from ``src/``
several times, building and populating the workload's machines after
each import (``setup_s`` is the median), plays one untimed warm-up
cell, then repeats the cell at the same seed until ``--seconds`` have
passed.  ``cell_s`` is the median repeat.

The host's speed drifts by up to 1.7x within and between processes,
so both times are normalised: a fixed ~1 ms reference slice runs
between ~25 ms segments of every timed block, and each segment is
scaled, by the median of the slices around it, to a host that runs the
slice in ``REFERENCE_SLICE_S``.  The
plain wall-clock figures are printed above the JSON line.  See
``WORKLOADS.md`` for the measurements behind this.

``--trace 1`` alternates untraced repeats with repeats under
``repro.telemetry.profiling``, and reports the per-layer split (plain
wall seconds) of the fastest traced repeat instead of the end-to-end
metrics.

Every repeat's simulated outputs must equal the warm-up's and the
reference outputs at the same seed: the committed ones in
``baseline/outputs.json`` for seeds 1-10, else those of the first run
at that seed (kept under ``perfbench/.outputs/``).  A cell that raises
or differs counts as failed.  The last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import heapq
import importlib
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback
from contextlib import contextmanager
from pathlib import Path
from types import SimpleNamespace

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUTPUTS_DIR = HERE / ".outputs"
REFERENCE_OUTPUTS = HERE / "baseline" / "outputs.json"
RESULTS_DIR = ROOT / "benchmarks" / "results"

#: Fresh imports (each followed by building the workload's machines)
#: per run; ``setup_s`` is their median.
SETUP_SAMPLES = 5
#: Timed repeats a run makes even when ``--seconds`` has run out.
MIN_REPEATS = 3
#: Equal spans of simulated time each ``env.run`` call is cut into, and
#: the wall time after which a segment ends at the next cut.
CHUNKS = 200
SEGMENT_S = 0.025
#: Wall time of one reference slice on the reference host: normalised
#: times are in seconds of a host that runs a slice in 1 ms.  The
#: 2-vCPU 2.0 GHz Xeon VM the baseline was taken on runs one in
#: 1.0-2.5 ms, depending on its neighbours' load.
REFERENCE_SLICE_S = 1.0e-3
#: A segment is scaled by the median of the slices up to this many
#: places before and after it, so one slow slice does not shrink the
#: segments around it.
SLICE_WINDOW = 2
#: Traced runs: allowed gap between the summed layer times and the
#: traced wall time, as a share of the wall time.
TRACE_SUM_TOLERANCE = 0.01

END_TO_END_UNITS = {"cell_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "machines.build_s": "s",
    "interference.install_s": "s",
    "sim.engine_self_s": "s",
    "sim.events": "count",
    "net.settle_self_s": "s",
    "net.settle_us": "us",
    "net.settles": "count",
    "net.reallocs": "count",
    "net.incremental_reallocs": "count",
    "net.coalesced": "count",
    "transports.process_self_s": "s",
    "transports.process_steps": "count",
    "transports.stream_self_s": "s",
    "transports.stream_calls": "count",
    "harness.other_s": "s",
    "qos.base_s": "s",
    "qos.contract_s": "s",
    "qos.faulted_s": "s",
    "qos.served_gb": "GB",
    "qos.throttled_gb": "GB",
    "trace.wall_s": "s",
    "trace.overhead": "ratio",
}
# Profiler section -> per-layer self-time metric.
SECTION_METRICS = {
    "engine": "sim.engine_self_s",
    "fabric.settle": "net.settle_self_s",
    "protocol": "transports.process_self_s",
    "protocol.stream": "transports.stream_self_s",
}


class CellFailure(Exception):
    """A cell's outputs broke one of the benchmark's checks."""


def require(cond: bool, what: str) -> None:
    if not cond:
        raise CellFailure(what)


# -- importing the simulator ------------------------------------------------
def fresh_import() -> SimpleNamespace:
    """Import the simulator from ``src/`` afresh, dropping any earlier copy.

    This times the simulator's own modules only: numpy, its one
    third-party import, is loaded once at the top of this file.
    """
    for name in [m for m in sys.modules
                 if m == "repro" or m.startswith("repro.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    mod = importlib.import_module
    repro = mod("repro")
    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise ImportError(f"repro imported from {repro.__file__}, not {SRC}")
    apps = mod("repro.apps")
    faults = mod("repro.faults")
    interference = mod("repro.interference")
    qos = mod("repro.qos")
    transports = mod("repro.core.transports")
    return SimpleNamespace(
        AppKernel=apps.AppKernel,
        Variable=apps.Variable,
        xgc1=apps.xgc1,
        AdaptiveTransport=transports.AdaptiveTransport,
        MpiIoTransport=transports.MpiIoTransport,
        FaultEvent=faults.FaultEvent,
        FaultPlan=faults.FaultPlan,
        BackgroundWriterJob=interference.BackgroundWriterJob,
        install_production_noise=interference.install_production_noise,
        jaguar=mod("repro.machines").jaguar,
        QosConfig=qos.QosConfig,
        TenantContract=qos.TenantContract,
        TenantJob=qos.TenantJob,
        run_tenants=qos.run_tenants,
        Profiler=mod("repro.telemetry").Profiler,
        profiling=mod("repro.telemetry").profiling,
        GB=mod("repro.units").GB,
        MB=mod("repro.units").MB,
    )


# -- timing -----------------------------------------------------------------
# Host-speed reference: a fixed ~1 ms mix of what the simulator's hot
# paths do (heap pushes and pops of tuples, slot attribute updates,
# dict counters, small numpy reductions).  It runs between segments of
# every timed block, so each segment is scaled by the host's speed at
# that moment.  The collector is off during a slice, so a collection
# paid for by the simulator's heap cannot land in it.
_REF_NODES = [SimpleNamespace(v=0.0, n=0) for _ in range(512)]
_REF_VALUES = np.linspace(1.0, 2.0, 700)
_REF_BINS = np.arange(700) % 64


def reference_slice() -> float:
    """Wall time of one fixed reference slice."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        heap, counts = [], {}
        for i in range(600):
            heapq.heappush(
                heap, ((i * 7919) % 1000 * 0.001, i, _REF_NODES[i % 512]))
        while heap:
            t, i, node = heapq.heappop(heap)
            node.v += t
            node.n += 1
            counts[i & 255] = counts.get(i & 255, 0) + node.n
            if i % 40 == 0:
                np.bincount(_REF_BINS,
                            weights=np.minimum(_REF_VALUES, t + 1.0))
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Probe:
    """Benchmark-side timers around public calls, plus the traced layers.

    ``timer(name)`` adds the plain wall time of its block to
    ``times[name]``.  ``block(name)`` times a measured block: it adds
    its wall time to ``wall[name]`` and, untraced, splits it into
    segments of about ``SEGMENT_S`` with a reference slice between
    segments, adding the block's time in reference-host seconds to
    ``norm[name]``.  ``run(machine, name)`` is a block around one
    simulated run: untraced, it cuts each ``env.run`` call into
    ``CHUNKS`` equal spans of simulated time (learned from the warm-up
    cell, whose calls are recorded in ``spans_seen``) so that segments
    can end inside the calendar loop; traced, it profiles the machine
    and times every ``env.run`` call instead.
    """

    def __init__(self, spans=None, traced_ns=None):
        self.spans = spans
        self.spans_seen: list = []
        self.profiler = traced_ns.Profiler() if traced_ns else None
        self._profiling = traced_ns.profiling if traced_ns else None
        self.times: dict = {}
        self.wall: dict = {}
        self.norm: dict = {}
        self.refs: list = []
        self.env_run_s = 0.0
        self.counters: dict = {}
        self.ledger: dict = {}
        self._segments: list = []
        self._block_refs: list = []
        self._mark = 0.0

    @staticmethod
    @contextmanager
    def _timed(store: dict, name: str):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            store[name] = store.get(name, 0.0) + time.perf_counter() - t0

    def timer(self, name: str):
        return self._timed(self.times, name)

    @contextmanager
    def block(self, name: str):
        if self.profiler is not None:
            with self._timed(self.wall, name):
                yield
            return
        self._segments, self._block_refs = [], [reference_slice()]
        self._mark = time.perf_counter()
        try:
            yield
        finally:
            self._close_segment()
            segs, refs = self._segments, self._block_refs
            self._segments = []
            self.wall[name] = self.wall.get(name, 0.0) + sum(segs)
            self.norm[name] = self.norm.get(name, 0.0) + sum(
                seg * REFERENCE_SLICE_S / statistics.median(
                    refs[max(0, i + 1 - SLICE_WINDOW): i + 1 + SLICE_WINDOW])
                for i, seg in enumerate(segs)
            )
            self.refs += refs

    def _close_segment(self) -> None:
        self._segments.append(time.perf_counter() - self._mark)
        self._block_refs.append(reference_slice())
        self._mark = time.perf_counter()

    @contextmanager
    def run(self, machine, name: str):
        env = machine.env
        env.run = self._chunked(env, env.run)
        try:
            if self.profiler is None:
                with self.block(name):
                    yield
            else:
                # The profiler wraps the chunked env.run and removes
                # both wrappers when it uninstalls.
                with self.block(name), \
                        self._profiling(machine, self.profiler):
                    yield
        finally:
            env.__dict__.pop("run", None)
        self.count_machine(machine)

    def _chunked(self, env, env_run):
        def run(until=None):
            t0 = env.now
            grid = self._grid(len(self.spans_seen), t0)
            c0 = time.perf_counter()
            try:
                for t in grid:
                    env_run(until=t)
                    if time.perf_counter() - self._mark >= SEGMENT_S:
                        self._close_segment()
                return env_run(until=until)
            finally:
                self.env_run_s += time.perf_counter() - c0
                self.spans_seen.append((t0, env.now))

        return run

    def _grid(self, call: int, now: float):
        """Simulated stop times cutting ``env.run`` call ``call``."""
        if (self.profiler is not None or self.spans is None
                or call >= len(self.spans) or self.spans[call][0] != now):
            return ()
        start, end = self.spans[call]
        if end <= start:
            return ()
        return [start + (end - start) * k / CHUNKS for k in range(1, CHUNKS)]

    def count_machine(self, machine) -> None:
        fab = machine.fs.fabric
        for key, value in (
            ("sim.events", machine.env.events_scheduled),
            ("net.settles", fab.settle_count),
            ("net.reallocs", fab.realloc_count),
            ("net.incremental_reallocs", fab.incremental_count),
            ("net.coalesced", fab.coalesced_count),
        ):
            self.counters[key] = self.counters.get(key, 0) + int(value)

    @property
    def wall_s(self) -> float:
        """Wall time of the measured blocks."""
        return sum(self.wall.values())

    @property
    def norm_s(self) -> float:
        """Time of the measured blocks in reference-host seconds."""
        return sum(self.norm.values())


def writers_digest(result) -> str:
    """Digest of every writer's (rank, start, end, bytes) timing."""
    h = hashlib.sha256()
    for w in result.per_writer:
        h.update(repr((w.rank, w.start, w.end, w.nbytes)).encode())
    return h.hexdigest()[:16]


# -- workloads ----------------------------------------------------------------
class Xgc1Cell:
    """XGC1 at the ``large`` appbench preset under interference."""

    POOL_OSTS = 672
    STRIPE_CAP = 160
    ADAPTIVE_OSTS = 512
    N_PROCS = 8192

    def __init__(self, transport: str):
        self.transport = transport

    def prepare(self, ns, seed: int, probe: Probe):
        with probe.timer("machines.build_s"):
            spec = ns.jaguar(n_osts=self.POOL_OSTS).with_overrides(
                max_stripe_count=self.STRIPE_CAP
            )
            machine = spec.build(
                n_ranks=self.N_PROCS, seed=seed, extra_service_nodes=2
            )
        with probe.timer("interference.install_s"):
            ns.install_production_noise(machine, live=True)
            ns.BackgroundWriterJob(
                machine, n_osts=8, writers_per_ost=3, write_size=1.0 * ns.GB
            ).start()
        return machine

    def play(self, ns, seed: int, machine, probe: Probe) -> dict:
        if self.transport == "adaptive":
            transport = ns.AdaptiveTransport(n_osts_used=self.ADAPTIVE_OSTS)
        else:
            transport = ns.MpiIoTransport(build_index=False)
        app = ns.xgc1()
        with probe.run(machine, "cell"):
            result = transport.run(machine, app, output_name="out")
        expected = self.N_PROCS * app.per_process_bytes
        require(result.total_bytes == expected,
                f"wrote {result.total_bytes} of {expected} bytes")
        require(result.extra.get("bytes_lost", 0.0) == 0.0,
                f"lost {result.extra.get('bytes_lost')} bytes")
        require(float(machine.pool.bytes_lost.sum()) == 0.0,
                "OST caches lost bytes")
        require(0.0 < result.reported_time < math.inf,
                f"reported_time {result.reported_time}")
        return {
            "reported_time": result.reported_time,
            "aggregate_bandwidth": result.aggregate_bandwidth,
            "n_adaptive_writes": result.n_adaptive_writes,
            "writers": writers_digest(result),
        }


class TenantsCell:
    """The QoS sweep's N=5 cell at the ``paper`` preset, three runs."""

    N_OSTS = 128
    CAP = 64
    N_TENANTS = 5
    VICTIM_RANKS = 64
    VICTIM_MB = 256.0
    AGGRESSOR_RANKS = 384
    AGGRESSOR_MB = 256.0
    # Contract shape, fault count and fault timing as in the sweep.
    VICTIM_FLOOR_FRAC = 0.8
    AGGRESSOR_FLOOR_FRAC = 0.08
    AGGRESSOR_CEILING_FRAC = 0.15
    FAULT_K = 2

    def _spec(self, ns):
        return ns.jaguar(n_osts=self.N_OSTS).with_overrides(
            max_stripe_count=self.CAP
        )

    def _build(self, ns, seed: int, faults=None):
        n_ranks = (self.VICTIM_RANKS * (self.N_TENANTS - 1)
                   + self.AGGRESSOR_RANKS)
        return self._spec(ns).build(n_ranks=n_ranks, seed=seed, faults=faults)

    def _config(self, ns):
        pool_bw = self.N_OSTS * self._spec(ns).ost_config.drain_peak
        guaranteed = 0.8 * pool_bw
        n_victims = self.N_TENANTS - 1
        weights = [1.0 + 0.25 * i for i in range(n_victims)]
        victim_pool = self.VICTIM_FLOOR_FRAC * guaranteed
        contracts = [
            ns.TenantContract(f"victim{i}",
                              floor=victim_pool * w / sum(weights))
            for i, w in enumerate(weights)
        ]
        contracts.append(ns.TenantContract(
            "scavenger",
            floor=self.AGGRESSOR_FLOOR_FRAC * guaranteed,
            ceiling=self.AGGRESSOR_CEILING_FRAC * pool_bw,
        ))
        return ns.QosConfig(contracts=tuple(contracts))

    def _jobs(self, ns):
        def app(name: str, mb: float):
            return ns.AppKernel(
                name, [ns.Variable("x", shape=(int(mb * ns.MB / 8),))]
            )

        jobs = [
            ns.TenantJob(f"victim{i}", ns.AdaptiveTransport(),
                         app("victim", self.VICTIM_MB), self.VICTIM_RANKS)
            for i in range(self.N_TENANTS - 1)
        ]
        jobs.append(ns.TenantJob(
            "scavenger", ns.AdaptiveTransport(),
            app("scavenger", self.AGGRESSOR_MB), self.AGGRESSOR_RANKS,
        ))
        return jobs

    def prepare(self, ns, seed: int, probe: Probe):
        with probe.timer("machines.build_s"):
            machines = (self._build(ns, seed), self._build(ns, seed))
        return machines, self._config(ns)

    def play(self, ns, seed: int, prepared, probe: Probe) -> dict:
        (base_machine, qos_machine), config = prepared
        floors = config.floors()
        with probe.run(base_machine, "qos.base_s"):
            base = ns.run_tenants(base_machine, self._jobs(ns))
        with probe.run(qos_machine, "qos.contract_s"):
            qos = ns.run_tenants(qos_machine, self._jobs(ns), qos=config)
        # Fail 2 OSTs at half the slowest victim's fault-free completion.
        victim_done = max(o.completion_seconds for o in qos.outcomes[:-1])
        plan = ns.FaultPlan(events=tuple(
            ns.FaultEvent(time=max(0.5 * victim_done, 1e-3), kind="ost_fail",
                          target=(i * self.N_OSTS) // self.FAULT_K)
            for i in range(self.FAULT_K)
        )).with_policy(run_timeout=max(120.0, 50.0 * qos.makespan))
        fault_machine = self._build(ns, seed, faults=plan)
        with probe.run(fault_machine, "qos.faulted_s"):
            faulted = ns.run_tenants(fault_machine, self._jobs(ns),
                                     qos=config)

        outputs = {}
        for name, res, machine in (("base", base, base_machine),
                                   ("qos", qos, qos_machine),
                                   ("faulted", faulted, fault_machine)):
            for o in res.outcomes:
                require(o.clean, f"{name}: tenant {o.name} errored: {o.error}")
                require(o.served_bytes > 0,
                        f"{name}: tenant {o.name} starved")
                for key, nbytes in (("qos.served_gb", o.served_bytes),
                                    ("qos.throttled_gb", o.throttled_bytes)):
                    probe.ledger[key] = probe.ledger.get(key, 0.0) + nbytes / 1e9
            if name != "faulted":
                require(float(machine.pool.bytes_lost.sum()) == 0.0,
                        f"{name}: OST caches lost bytes")
                for job, o in zip(self._jobs(ns), res.outcomes):
                    expected = job.n_ranks * job.app.per_process_bytes
                    require(o.result.total_bytes == expected,
                            f"{name}: tenant {o.name} wrote "
                            f"{o.result.total_bytes} of {expected} bytes")
            outputs[name] = {
                "makespan": res.makespan,
                "jain_index": res.fairness(floors),
                "tenants": [
                    [o.completion_seconds, o.served_bytes, o.throttled_bytes,
                     writers_digest(o.result)]
                    for o in res.outcomes
                ],
            }
        return outputs


WORKLOADS = {
    "xgc1_adaptive_8192": Xgc1Cell("adaptive"),
    "xgc1_mpiio_8192": Xgc1Cell("mpiio"),
    "tenants5_qos_faulted": TenantsCell(),
}


# -- one run ------------------------------------------------------------------
class Run:
    """Counts cells and checks each one's outputs against the reference."""

    def __init__(self, workload: str, seed: int):
        self.workload = WORKLOADS[workload]
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        committed = json.loads(REFERENCE_OUTPUTS.read_text())
        self._ref_path = OUTPUTS_DIR / f"{workload}-seed{seed}.json"
        self.reference = committed[workload].get(str(seed))
        if self.reference is None and self._ref_path.exists():
            self.reference = json.loads(self._ref_path.read_text())
        self.spans = None  # env.run spans of the warm-up cell

    def cell(self, ns, probe: Probe):
        """Build and play one cell; its outputs, or None when it failed.

        The previous cell's machines are freed before this one's are
        built, so ``peak_rss_mb`` counts one cell's machines.
        """
        self.attempted += 1
        try:
            gc.collect()
            prepared = self.workload.prepare(ns, self.seed, Probe())
            gc.collect()
            outputs = self.workload.play(ns, self.seed, prepared, probe)
            del prepared
            outputs = json.loads(json.dumps(outputs))
            if self.reference is None:
                self.reference = outputs
                save_reference(self._ref_path, outputs)
            require(outputs == self.reference,
                    "outputs differ from the reference at this seed")
            return outputs
        except Exception:  # any cell error counts as a failed cell
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None

    def repeat(self, ns, seconds: float, modes=(False,)):
        """Play cells until ``seconds`` pass; the probes of each mode.

        Cells cycle through ``modes`` (untraced ``False``, traced
        ``True``), so every mode sees the same phases of the host.
        """
        probes = {traced: [] for traced in modes}
        deadline = time.perf_counter() + seconds
        while self.failed <= 2 * MIN_REPEATS and (
                time.perf_counter() < deadline
                or min(map(len, probes.values())) < MIN_REPEATS):
            traced = modes[self.attempted % len(modes)]
            probe = Probe(self.spans, ns if traced else None)
            if self.cell(ns, probe) is not None:
                probes[traced].append(probe)
        return probes


def save_reference(path: Path, outputs: dict) -> None:
    path.parent.mkdir(exist_ok=True)
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(outputs, sort_keys=True))
    os.replace(tmp, path)


def results_snapshot():
    """(name, size, mtime) of the committed benchmark results."""
    if not RESULTS_DIR.is_dir():
        return ()
    return tuple(sorted(
        (p.name, p.stat().st_size, p.stat().st_mtime_ns)
        for p in RESULTS_DIR.iterdir()
    ))


def setup(run: Run):
    """Import and build ``SETUP_SAMPLES`` times; the last import is kept.

    Each sample's machines are dropped, and freed before the next
    sample, so no two samples' machines are alive at once.
    """
    probes = []
    for _ in range(SETUP_SAMPLES):
        gc.collect()
        probe = Probe()
        with probe.block("setup"):
            ns = fresh_import()
            prepared = run.workload.prepare(ns, run.seed, probe)
        del prepared
        probes.append(probe)
    return ns, probes


def layer_metrics(probe: Probe, setup_probes) -> dict:
    """Per-layer metrics of one traced cell."""
    prof = probe.profiler.to_dict()["sections"]
    out = {name: 0.0 for name in PER_LAYER_UNITS}
    for key in ("machines.build_s", "interference.install_s"):
        out[key] = statistics.median(p.times.get(key, 0.0)
                                     for p in setup_probes)
    for section, metric in SECTION_METRICS.items():
        if section in prof:
            out[metric] = prof[section]["seconds"]
    settles = prof.get("fabric.settle", {}).get("calls", 0)
    out["net.settle_us"] = (1e6 * out["net.settle_self_s"] / settles
                            if settles else 0.0)
    out["transports.process_steps"] = prof.get("protocol", {}).get("calls", 0)
    out["transports.stream_calls"] = (
        prof.get("protocol.stream", {}).get("calls", 0))
    out.update(probe.counters)
    out.update(probe.ledger)
    for key in ("qos.base_s", "qos.contract_s", "qos.faulted_s"):
        out[key] = probe.wall.get(key, 0.0)
    wall = probe.wall_s
    out["trace.wall_s"] = wall
    out["harness.other_s"] = wall - probe.env_run_s
    layers = sum(s["seconds"] for s in prof.values()) + out["harness.other_s"]
    require(abs(layers - wall) <= TRACE_SUM_TOLERANCE * wall,
            f"layer times sum to {layers:.4f} s, traced wall is {wall:.4f} s")
    return out


def median_or_nan(values) -> float:
    values = list(values)
    return statistics.median(values) if values else math.nan


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no simulator sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # Ambient knobs (worker pools, fault plans, QoS contracts, ...) must
    # not leak into the measured cells.
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    before = results_snapshot()

    run = Run(args.workload, args.seed)
    ns, setup_probes = setup(run)
    warm_up = Probe()
    run.cell(ns, warm_up)
    run.spans = warm_up.spans_seen

    probes = run.repeat(ns, args.seconds, (False, True) if args.trace
                        else (False,))
    plain, traced = probes[False], probes.get(True, [])
    plain_wall_s = median_or_nan(p.wall_s for p in plain)
    refs = [r for p in plain for r in p.refs]
    print(f"cells timed {len(plain)}: wall median {plain_wall_s:.4f} s, "
          f"reference slice median {1e3 * median_or_nan(refs):.4f} ms")
    print("normalised cell times: "
          + " ".join(f"{p.norm_s:.4f}" for p in plain))

    metrics = {}
    if args.trace:
        try:
            fastest = min(traced, key=lambda p: p.wall_s)
            values = layer_metrics(fastest, setup_probes)
            values["trace.overhead"] = (
                median_or_nan(p.wall_s for p in traced) / plain_wall_s)
            # Exact counters must repeat across traced cells.
            for p in traced:
                require(p.counters == fastest.counters,
                        "counters differ between traced cells")
        except (CellFailure, ValueError) as exc:
            print(f"traced run check failed: {exc}", file=sys.stderr)
            run.failed += 1
            values = {name: math.nan for name in PER_LAYER_UNITS}
        units = PER_LAYER_UNITS
    else:
        values = {
            "cell_s": median_or_nan(p.norm_s for p in plain),
            "setup_s": median_or_nan(p.norm["setup"] for p in setup_probes),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
    for name, unit in units.items():
        value = values[name]
        metrics[name] = {"value": value, "unit": unit}
        print(f"{name:28s} {value:16.6f} {unit}")

    if results_snapshot() != before:
        print("benchmarks/results/ changed during the run", file=sys.stderr)
        run.failed += 1
    correct = run.failed == 0 and all(
        math.isfinite(m["value"]) for m in metrics.values())
    for m in metrics.values():  # JSON has no NaN; correct is false anyway
        if not math.isfinite(m["value"]):
            m["value"] = 0.0
    print(f"cells attempted {run.attempted}, failed {run.failed}")
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
