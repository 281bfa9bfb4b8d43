"""Run the benchmark over seeds 1-10 and summarise the spread.

Usage, from the root of a checkout::

    python3 perfbench/sweep.py --out perfbench/baseline/set1.json

For each workload it makes one untraced run per seed, one after the
other, each ``run_seconds`` long as ``BENCHMARK.json`` sets it, and
reports every end-to-end metric's median, quartiles
(``statistics.quantiles(values, n=4)``) and quartile spread as a share
of the median.  It then makes one traced run per workload at the first
seed and records its per-layer metrics, whose counters repeat exactly
from run to run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

from run import HERE, ROOT, WORKLOADS

SEEDS = list(range(1, 11))
RUN_SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]


def run_once(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(RUN_SECONDS),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                           f"{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "iqr_share": (q3 - q1) / med if med else float("nan"),
            "values": values}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)

    summary = {"nproc": os.cpu_count(), "seconds": RUN_SECONDS,
               "seeds": SEEDS, "workloads": {}}
    for workload in WORKLOADS:
        runs = [run_once(workload, s, 0) for s in SEEDS]
        traced = run_once(workload, SEEDS[0], 1)
        entry = {
            "correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": {
                name: spread([r["metrics"][name]["value"] for r in runs])
                for name in runs[0]["metrics"]
            },
            "traced_correct": traced["correct"],
            "per_layer": {
                name: m["value"] for name, m in traced["metrics"].items()
            },
        }
        summary["workloads"][workload] = entry
        for name, s in entry["metrics"].items():
            print(f"{workload:22s} {name:12s} median {s['median']:10.4f} "
                  f"q1 {s['q1']:10.4f} q3 {s['q3']:10.4f} "
                  f"spread {100 * s['iqr_share']:5.1f}%", flush=True)
        print(f"{workload:22s} correct {entry['correct']} attempted "
              f"{entry['attempted']} failed {entry['failed']} traced correct "
              f"{entry['traced_correct']}", flush=True)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
