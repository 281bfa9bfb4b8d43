"""Function-level reachability audit: which functions in ``src/`` the system runs.

Every function (method, nested def, property) under ``src/repro`` is
put in one of three classes:

* **reached**: some artifact runs it.  The artifact set is every
  non-install, non-test ``run:`` step of ``.github/workflows/ci.yml``,
  the README's and ``examples/`` invocations, the benchmark suite at
  smoke *and* at small (some paper-claim helpers run only at small),
  and the three perfbench workloads traced and untraced;
* **test-only**: only the tier-1 suite (``tests/``) runs it;
* **unreached**: nothing runs it.

Run it from the repo root (stdlib only; the command list lives here
rather than being parsed out of ``ci.yml``)::

    python -m tests.reach            # summary line, then per-module lists
    python -m tests.reach --check    # exit 1 on a non-reached function
                                     # missing from DESIGN's kept table

The collector is a ``sitecustomize`` module put first on each child's
``PYTHONPATH``: it records the code object of every call whose file
lies under the audited root, with ``sys.monitoring`` where the
interpreter has it (each code object costs one callback) and with
``sys.settrace``/``threading.settrace`` (call events only) elsewhere.
Each new code object is appended to the log with one ``O_APPEND``
write, so forked workers that leave through ``os._exit`` and runs that
are SIGKILLed keep everything they reached.  Commands run in a scratch
directory, the benchmark suite from a copy of ``benchmarks/``, so the
committed results stay untouched.

A function is matched to a code object by file, first line (the first
decorator's, as CPython numbers it) and name.  ``--check`` is one-way:
a kept function that an artifact does reach is reported and does not
fail the check, so timing-dependent failure paths (a worker requeue,
a SIGKILL resume) cannot make it flaky.  An artifact step that exits
with a status it should not also fails it, since a step that died
early under-reports what it reaches.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
DESIGN = REPO / "DESIGN.md"
KEPT_HEADING = "What only tests reach"

PY = sys.executable


# -- the functions under audit ----------------------------------------------

@dataclass(frozen=True)
class Func:
    module: str  # dotted module name, e.g. "repro.sim.engine"
    qualname: str  # "Class.method", "outer.inner"
    path: str  # absolute file path
    first: int  # first line, decorators included
    lines: int  # lines the function owns (nested defs excluded)

    @property
    def key(self) -> Tuple[str, int, str]:
        return self.path, self.first, self.qualname.rsplit(".", 1)[-1]

    @property
    def id(self) -> str:
        return f"{self.module}:{self.qualname}"


_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _first_line(node) -> int:
    return min([d.lineno for d in node.decorator_list] + [node.lineno])


def _span(node) -> int:
    return node.end_lineno - _first_line(node) + 1


def _child_defs(node):
    """The defs directly inside *node* (not inside one of those)."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, _DEFS):
            yield child
        else:
            yield from _child_defs(child)


def functions(root: Path = SRC) -> List[Func]:
    """Every def under *root* (a ``sys.path`` entry), in file order."""
    found: List[Func] = []
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root).with_suffix("")
        parts = rel.parts[:-1] if rel.name == "__init__" else rel.parts
        module = ".".join(parts)
        tree = ast.parse(path.read_text(), filename=str(path))

        def visit(node, prefix: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, _DEFS):
                    qual = prefix + child.name
                    own = _span(child) - sum(map(_span, _child_defs(child)))
                    found.append(Func(module, qual, str(path.resolve()),
                                      _first_line(child), own))
                    visit(child, qual + ".")
                elif isinstance(child, ast.ClassDef):
                    visit(child, prefix + child.name + ".")
                else:
                    visit(child, prefix)

        visit(tree, "")
    return found


# -- the collector ------------------------------------------------------------

_HOOK = '''\
import os as _os
import sys as _sys

_ROOT = {root!r}
_FD = _os.open({log!r}, _os.O_WRONLY | _os.O_APPEND | _os.O_CREAT, 0o644)


def _write(code):
    _os.write(_FD, ("%s\\t%d\\t%s\\n" % (
        code.co_filename, code.co_firstlineno, code.co_name)).encode())


if hasattr(_sys, "monitoring"):
    _mon = _sys.monitoring

    def _start(code, offset):
        if code.co_filename.startswith(_ROOT):
            _write(code)
        return _mon.DISABLE

    _mon.use_tool_id(_mon.COVERAGE_ID, "reach")
    _mon.register_callback(_mon.COVERAGE_ID, _mon.events.PY_START, _start)
    _mon.set_events(_mon.COVERAGE_ID, _mon.events.PY_START)
else:
    import threading as _threading

    _seen = set()

    def _trace(frame, event, arg):
        code = frame.f_code
        if code not in _seen:
            _seen.add(code)
            if code.co_filename.startswith(_ROOT):
                _write(code)

    _sys.settrace(_trace)
    _threading.settrace(_trace)
'''


def hook_env(hook_dir: Path, root: Path, log: Path,
             extra_path: Sequence[Path] = ()) -> Dict[str, str]:
    """An environment whose Python processes log what they run under *root*."""
    hook_dir.mkdir(parents=True, exist_ok=True)
    (hook_dir / "sitecustomize.py").write_text(
        _HOOK.format(root=str(root.resolve()) + os.sep, log=str(log)))
    env = dict(os.environ)
    for name in ("REPRO_SCALE", "REPRO_SAMPLES", "REPRO_JOBS",
                 "REPRO_JOURNAL", "REPRO_FAULTS"):
        env.pop(name, None)
    env["PYTHONPATH"] = os.pathsep.join(
        str(p) for p in (hook_dir, root, *extra_path))
    return env


def read_log(log: Path) -> Set[Tuple[str, int, str]]:
    keys = set()
    if log.exists():
        for line in log.read_text().splitlines():
            path, first, name = line.split("\t")
            keys.add((path, int(first), name))
    return keys


def classify(funcs: Iterable[Func], reached: Set, tier1: Set) -> Dict[str, List[Func]]:
    out: Dict[str, List[Func]] = {"reached": [], "test-only": [], "unreached": []}
    for f in funcs:
        if f.key in reached:
            out["reached"].append(f)
        elif f.key in tier1:
            out["test-only"].append(f)
        else:
            out["unreached"].append(f)
    return out


def summary(classes: Dict[str, List[Func]]) -> str:
    def count(name):
        fs = classes[name]
        return len(fs), sum(f.lines for f in fs)

    a, t, u = count("reached"), count("test-only"), count("unreached")
    return (f"{a[0] + t[0] + u[0]} functions; reached {a[0]} ({a[1]} lines); "
            f"test-only {t[0]} ({t[1]}); unreached {u[0]} ({u[1]})")


# -- DESIGN's kept table ---------------------------------------------------------

_KEPT_ROW = re.compile(r"^\|\s*`([\w.]+):([\w.]+)`\s*\|")


def kept(design: Path = DESIGN) -> Dict[str, str]:
    """``module:qualname`` -> reason, from DESIGN's kept table."""
    rows: Dict[str, str] = {}
    inside = False
    for line in design.read_text().splitlines():
        if line.startswith("## "):
            inside = KEPT_HEADING in line
            continue
        m = _KEPT_ROW.match(line) if inside else None
        if m:
            rows[f"{m.group(1)}:{m.group(2)}"] = line.split("|")[2].strip()
    return rows


# -- the artifact set --------------------------------------------------------------

def _m(module: str, *args: str) -> List[str]:
    return [PY, "-m", module, *args]


SMOKE = {"REPRO_SCALE": "smoke"}
SMALL = {"REPRO_SCALE": "small"}
BENCH = ("-p", "no:cacheprovider", "-o", "addopts=",
         "-o", "python_files=bench_*.py", "-q")

# Inline steps of ci.yml, cut to the calls they make into src/.
_FAIL2_PLAN = """\
from repro.faults import two_ost_failure_plan
two_ost_failure_plan(osts=(0, 1), at=0.05).save_json("fail2.json")
"""
_HANG_PLAN = """\
from repro.faults import FaultPlan, FaultEvent
FaultPlan(events=(FaultEvent(time=0.01, kind="ost_hang", target=0),),
          ).with_policy(write_timeout=0.5, run_timeout=60.0,
          ).save_json("hang.json")
"""
_OVERHEAD_GATE = """\
from benchmarks.bench_kernel_microbench import _ticker
from repro.sim import Environment
from repro.telemetry import MetricsRegistry
for reg in (None, MetricsRegistry()):
    env = Environment()
    if reg is not None:
        env.set_metrics(reg)
    for i in range(200):
        env.process(_ticker(env, 500), name=f"t{i}")
    env.run()
"""
_SPAWN_SWEEP = """\
import multiprocessing as mp, sys
mp.set_start_method("spawn")
from repro.tools.experiment import main
sys.exit(main(["fig1", "--scale", "smoke", "--jobs", "2",
               "--trace", "t_spawn.json", "--metrics", "m_spawn.json"]))
"""
_RESUME_CHECK = """\
import os
from repro.service.journal import replay
from repro.harness.figures import fig1
replay("state/journal.jsonl")
os.environ["REPRO_SAMPLES"] = "40"
clean = fig1.run("smoke", 0).to_dict()
os.environ["REPRO_JOURNAL"] = "state"
assert fig1.run("smoke", 0).to_dict() == clean
"""


@dataclass
class Step:
    argv: List[str]
    env: Dict[str, str]
    ok: Tuple[int, ...] = (0,)
    kill_after_done: int = 0  # SIGKILL once the journal holds this many


def _step(*argv: str, env: Optional[Dict[str, str]] = None,
          ok: Tuple[int, ...] = (0,), kill_after_done: int = 0) -> Step:
    return Step(list(argv), dict(env or {}), ok, kill_after_done)


def _perfbench(workload: str, trace: int) -> Step:
    return _step(PY, str(REPO / "perfbench" / "run.py"), "--workload",
                 workload, "--seed", "1", "--seconds", "1",
                 "--trace", str(trace))


def artifact_steps() -> List[Step]:
    exp, tr, fsck = "repro.tools.experiment", "repro.tools.trace", "repro.tools.fsck"
    mon, rep, cmp_ = "repro.tools.monitor", "repro.tools.bench_report", "repro.tools.compare"
    samples4 = {"REPRO_SAMPLES": "4"}
    gates = ("--results", "benchmarks/results", "--baseline", "baseline")
    return [
        # ci.yml trace-smoke
        _step(*_m("pytest", "benchmarks/bench_fig6_xgc1.py", *BENCH,
                  "--trace", "trace.json"), env=SMOKE),
        _step(*_m(tr, "trace.json", "--check")),
        _step(*_m(tr, "trace.json", "--top", "10")),
        _step(PY, "-c", _FAIL2_PLAN),
        _step(*_m(exp, "fig3", "--scale", "smoke", "--faults", "fail2.json",
                  "--trace", "tf.json", "--metrics", "mf.json"), ok=(1,)),
        _step(*_m(tr, "tf.json", "--check")),
        # ci.yml fault-smoke (its resilience bench runs in the suites)
        _step(PY, "-c", _HANG_PLAN),
        _step(*_m(exp, "fig2", "--scale", "smoke", "--faults", "hang.json"),
              ok=(0, 1)),
        # ci.yml integrity-smoke: every fsck flag
        _step(*_m(fsck, "--bitflip", "2", "--torn", "1", "--stale", "1",
                  "--repair", "--strict", "--json", "fsck_adaptive.json")),
        _step(*_m(fsck, "--transport", "splitfiles", "--bitflip", "1",
                  "--rebuild-index", "--repair", "--strict")),
        _step(*_m(fsck, "--transport", "stagger", "--bitflip", "1",
                  "--repair", "--strict")),
        _step(*_m(fsck, "--silent-rate", "0.05", "--verify-writes",
                  "--repair", "--strict")),
        _step(*_m(fsck, "--transport", "mpiio", "--bitflip", "2", "--torn",
                  "1", "--stale", "1", "--repair", "--strict",
                  "--json", "fsck_mpiio.json")),
        _step(*_m(fsck, "--no-checksums", "--bitflip", "2", "--repair",
                  "--json", "fsck_nock.json")),
        # ci.yml telemetry-smoke
        _step(*_m(exp, "fig1", "--scale", "smoke", "--metrics", "metrics.json")),
        _step(*_m(mon, "--from-json", "metrics.json", "--dashboard",
                  "replay.html")),
        _step(*_m(exp, "fig1", "--scale", "smoke", "--trace", "t_serial.json",
                  "--metrics", "m_serial.json"), env=samples4),
        _step(*_m(exp, "fig1", "--scale", "smoke", "--jobs", "2", "--trace",
                  "t_jobs2.json", "--metrics", "m_jobs2.json"), env=samples4),
        _step(PY, "-c", _SPAWN_SWEEP, env=samples4),
        _step(*_m(mon, "--dashboard", "dash.html", "--prometheus",
                  "dash.prom", "--profile")),
        _step(PY, "-c", _OVERHEAD_GATE),
        # ci.yml chaos-smoke: a journaled sweep SIGKILLed, then resumed
        _step(*_m(exp, "fig1", "--scale", "smoke", "--journal", "state"),
              env={"REPRO_SAMPLES": "40"}, ok=(-signal.SIGKILL,),
              kill_after_done=5),
        _step(*_m(rep, "--partial", "state")),
        _step(*_m(exp, "fig1", "--scale", "smoke", "--journal", "state",
                  "--metrics", "m_resume.json"), env={"REPRO_SAMPLES": "40"}),
        _step(PY, "-c", _RESUME_CHECK),
        # ci.yml perf-smoke and qos-smoke (their benches run in the suites)
        _perfbench("xgc1_mpiio_8192", 1),
        _perfbench("xgc1_adaptive_8192", 1),
        _perfbench("tenants5_qos_faulted", 1),
        _perfbench("xgc1_mpiio_8192", 0),
        _perfbench("xgc1_adaptive_8192", 0),
        _perfbench("tenants5_qos_faulted", 0),
        # The benchmark suite at smoke and at small, where three
        # paper-claim helpers run and nowhere else.  A failed check is
        # exit 1 (fig3's fails at smoke; bench_scale's wall-clock
        # bounds can trip under the collector on a slow host); a test
        # module that no longer imports is a collection error, exit 2.
        _step(*_m("pytest", "benchmarks", *BENCH, "--benchmark-disable"),
              env=SMOKE, ok=(0, 1)),
        _step(*_m("pytest", "benchmarks", *BENCH, "--benchmark-disable"),
              env=SMALL, ok=(0, 1)),
        _step(*_m(rep, *gates, "--gate", "kernel.events_per_sec=0.70",
                  "--gate", "kernel.settles_per_sec_churn=0.70",
                  "--gate", "kernel.allocs_per_sec_single_bottleneck=0.70",
                  "--gate", "scale.adaptive_8192_seconds=0.70"), ok=(0, 1)),
        _step(*_m(rep, *gates, "--gate", "qos.jain_index=0.70",
                  "--gate", "qos.victim_p99_seconds=0.70"), ok=(0, 1)),
        _step(*_m(rep, "--results", "benchmarks/results", "--changed-only")),
        # Every artifact with trace, metrics and journal; a pooled
        # sweep, resumed once.
        _step(*_m(exp, "all", "--scale", "smoke", "--trace", "all.json",
                  "--metrics", "all_m.json", "--journal", "all_state")),
        _step(*_m(exp, "fig6", "--scale", "smoke", "--jobs", "2",
                  "--journal", "pool_state")),
        _step(*_m(exp, "fig6", "--scale", "smoke", "--jobs", "2",
                  "--journal", "pool_state")),
        # README invocations
        _step(*_m(tr, "trace.json")),
        _step(*_m(cmp_, "--app", "pixie3d:xl", "--noise")),
        _step(*_m(cmp_, "--app", "xgc1", "--procs", "128", "--machine",
                  "franklin", "--methods", "mpiio", "adaptive", "stagger",
                  "--background-job", "--seed", "7")),
        _step(*_m(cmp_, "--app", "ior:64", "--procs", "64", "--machine",
                  "xtp", "--methods", "posix", "adaptive")),
        _step(*_m(mon, "--transport", "mpiio", "--json", "mon_mpiio.json")),
        _step(*_m(mon, "--app", "xgc1", "--prometheus", "run.prom")),
        _step(*_m(mon, "--from-json", "mon_mpiio.json", "--dashboard",
                  "mon_mpiio.html")),
        *(_step(PY, str(REPO / "examples" / name)) for name in (
            "quickstart.py", "interference_study.py", "pixie3d_restart.py",
            "xgc1_campaign.py", "read_back.py")),
    ]


def tier1_steps() -> List[Step]:
    return [_step(*_m("pytest", "-q", "-p", "no:cacheprovider",
                      str(REPO / "tests")))]


# -- running -----------------------------------------------------------------------

def _done_records(journal: Path) -> int:
    done = 0
    if journal.exists():
        for line in journal.read_text().splitlines():
            try:
                done += json.loads(line).get("kind") == "done"
            except ValueError:  # a record still being written
                pass
    return done


def run_steps(steps: Sequence[Step], env: Dict[str, str], cwd: Path,
              verbose: bool = True) -> List[str]:
    """Run *steps*; return a line per step that exited as it should not."""
    bad = []
    for step in steps:
        t0 = time.perf_counter()
        proc = subprocess.Popen(step.argv, cwd=cwd, env={**env, **step.env},
                                stdout=subprocess.DEVNULL,
                                stderr=subprocess.DEVNULL)
        if step.kill_after_done:
            journal = cwd / "state" / "journal.jsonl"
            while (proc.poll() is None
                   and _done_records(journal) < step.kill_after_done):
                time.sleep(0.01)
            if proc.poll() is None:
                proc.kill()
        code = proc.wait()
        label = " ".join(Path(a).name if os.sep in a else a
                         for a in step.argv[1:]).splitlines()[0]
        if verbose:
            print(f"  [{time.perf_counter() - t0:6.1f}s] rc={code} {label}",
                  file=sys.stderr)
        if code not in step.ok:
            bad.append(f"step exited {code} (expected {step.ok}): {label}")
    return bad


def audit(verbose: bool = True):
    """Run both sets; return (classes, bad step lines)."""
    with tempfile.TemporaryDirectory(prefix="reach-") as tmp:
        tmp = Path(tmp)
        work = tmp / "work"
        work.mkdir()
        shutil.copytree(REPO / "benchmarks", work / "benchmarks",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copytree(REPO / "benchmarks" / "results", work / "baseline")
        logs = tmp / "artifacts.log", tmp / "tier1.log"
        if verbose:
            print("artifact set:", file=sys.stderr)
        bad = run_steps(artifact_steps(),
                        hook_env(tmp / "hook-a", SRC, logs[0], [work]), work,
                        verbose)
        if verbose:
            print("tier-1:", file=sys.stderr)
        bad += run_steps(tier1_steps(),
                         hook_env(tmp / "hook-t", SRC, logs[1]), REPO, verbose)
        classes = classify(functions(SRC), read_log(logs[0]),
                           read_log(logs[1]))
    return classes, bad


def report(classes: Dict[str, List[Func]], keep: Dict[str, str]) -> List[str]:
    lines = [summary(classes)]
    by_module: Dict[str, List[Tuple[str, Func]]] = {}
    for name in ("test-only", "unreached"):
        for f in classes[name]:
            by_module.setdefault(f.module, []).append((name, f))
    for module in sorted(by_module):
        lines.append(f"{module}")
        for name, f in by_module[module]:
            mark = "kept" if f.id in keep else "NEW "
            lines.append(f"  {mark} {name:<9} {f.qualname} ({f.lines})")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m tests.reach",
        description="Which functions in src/ the artifact set and the "
        "tier-1 suite reach.")
    parser.add_argument(
        "--check", action="store_true",
        help="exit 1 if a function the artifact set does not reach is "
        "missing from DESIGN's kept table, or an artifact step failed")
    args = parser.parse_args(argv)
    t0 = time.perf_counter()
    classes, bad = audit()
    keep = kept()
    print("\n".join(report(classes, keep)))
    missing = [f.id for name in ("test-only", "unreached")
               for f in classes[name] if f.id not in keep]
    reached_kept = sorted(f.id for f in classes["reached"] if f.id in keep)
    if reached_kept:
        print("kept but reached: " + ", ".join(reached_kept))
    for line in bad:
        print(line)
    print(f"[{time.perf_counter() - t0:.0f}s wall]")
    if args.check and (missing or bad):
        for fid in missing:
            print(f"not reached and not kept: {fid}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
