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
import inspect
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
OPTIONS_HEADING = "Options with one value in use"

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


def _module_of(path: Path, root: Path) -> str:
    rel = path.relative_to(root).with_suffix("")
    return ".".join(rel.parts[:-1] if rel.name == "__init__" else rel.parts)


def functions(root: Path = SRC) -> List[Func]:
    """Every def under *root* (a ``sys.path`` entry), in file order."""
    found: List[Func] = []
    for path in sorted(root.rglob("*.py")):
        module = _module_of(path, root)
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


# -- the settable values under audit ------------------------------------------

@dataclass(frozen=True)
class Setting:
    """A defaulted parameter of a public function or method, or a
    defaulted dataclass field (``first`` is 0 for a field)."""

    module: str
    qualname: str  # the function's, or the dataclass's for a field
    name: str  # the parameter or field
    path: str
    first: int

    @property
    def id(self) -> str:
        return f"{self.module}:{self.qualname}({self.name})"


def _public(name: str) -> bool:
    return not name.startswith("_") or (name.startswith("__")
                                        and name.endswith("__"))


def _is_dataclass(node: ast.ClassDef) -> bool:
    for d in node.decorator_list:
        d = d.func if isinstance(d, ast.Call) else d
        if getattr(d, "attr", getattr(d, "id", None)) == "dataclass":
            return True
    return False


def _field_settable(stmt) -> bool:
    if not (isinstance(stmt, ast.AnnAssign) and stmt.value is not None
            and isinstance(stmt.target, ast.Name)):
        return False
    if "ClassVar" in ast.unparse(stmt.annotation):
        return False
    value = stmt.value
    if not (isinstance(value, ast.Call)
            and getattr(value.func, "id", getattr(value.func, "attr", None))
            == "field"):
        return True
    kw = {k.arg: k.value for k in value.keywords}
    init = kw.get("init")
    return (("default" in kw or "default_factory" in kw)
            and not (isinstance(init, ast.Constant) and init.value is False))


def settables(root: Path = SRC) -> List[Setting]:
    """Every settable value under *root*, in file order: the defaulted
    parameters of public defs outside function bodies (in public
    classes) and the defaulted ``__init__`` fields of dataclasses."""
    found: List[Setting] = []
    for path in sorted(root.rglob("*.py")):
        module = _module_of(path, root)
        tree = ast.parse(path.read_text(), filename=str(path))

        def visit(node, prefix: str, public: bool) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, _DEFS):
                    if public and _public(child.name):
                        a = child.args
                        pos = a.posonlyargs + a.args
                        names = [x.arg for x in pos[len(pos) - len(a.defaults):]]
                        names += [x.arg for x, d in zip(a.kwonlyargs,
                                                        a.kw_defaults)
                                  if d is not None]
                        found.extend(
                            Setting(module, prefix + child.name, name,
                                    str(path.resolve()), _first_line(child))
                            for name in names)
                elif isinstance(child, ast.ClassDef):
                    qual = prefix + child.name
                    if _is_dataclass(child):
                        found.extend(
                            Setting(module, qual, stmt.target.id,
                                    str(path.resolve()), 0)
                            for stmt in child.body if _field_settable(stmt))
                    visit(child, qual + ".", public and _public(child.name))
                else:
                    visit(child, prefix, public)

        visit(tree, "", True)
    return found


# -- the collector ------------------------------------------------------------

def entry_offset(instructions) -> int:
    """The ``f_lasti`` a generator's frame shows ``sys.settrace`` at its
    first entry, given the instructions of its code: the offset of its
    ``RESUME`` from Python 3.11 on, and -1 ("nothing run yet") on 3.10,
    which has no ``RESUME``.  Every later entry is a resume."""
    return next((i.offset for i in instructions if i.opname == "RESUME"),
                -1)


_HOOK = '''\
import os as _os
import sys as _sys

_ROOT = {root!r}
_FD = _os.open({log!r}, _os.O_WRONLY | _os.O_APPEND | _os.O_CREAT, 0o644)
_MISSING = object()


def _write(code):
    _os.write(_FD, ("%s\\t%d\\t%s\\n" % (
        code.co_filename, code.co_firstlineno, code.co_name)).encode())


# Settable values: each watched parameter is logged with every distinct
# value it takes here, until it has shown two.  The table is read once
# per process from the file REACH_VALUES names (absent: no recording).
_PARAMS, _FIELDS = {{}}, {{}}
if _os.environ.get("REACH_VALUES"):
    import json as _json
    with open(_os.environ["REACH_VALUES"]) as _f:
        _table = _json.load(_f)
    _PARAMS = {{(p, f, n): w for p, f, n, w in _table["params"]}}
    _FIELDS = {{(m, q): w for m, q, w in _table["fields"]}}
_SCALAR = (bool, int, float, complex, str, bytes)
_FUNCTION = type(_write)
_FACTORY = "_HAS_DEFAULT_FACTORY_CLASS"  # dataclasses' "use the factory"
_GENERATOR = 0x20 | 0x80 | 0x200  # CO_GENERATOR, CO_COROUTINE, CO_ASYNC_GENERATOR


{entry_offset}

def _value(v):
    # A value's identity across processes: its repr for plain data, its
    # qualified name for a function or class, else the object itself
    # within this process only.
    t = type(v)
    if v is None or isinstance(v, _SCALAR) or (
            t in (tuple, list, frozenset) and len(v) <= 32
            and all(x is None or isinstance(x, _SCALAR) for x in v)):
        r = repr(v)
    elif (getattr(t, "__dataclass_params__", None) is not None
          and t.__dataclass_params__.frozen) or t.__name__ == _FACTORY:
        r = repr(v)  # a frozen dataclass, or a field left to its factory
    elif isinstance(v, (type, _FUNCTION)):
        r = "%s.%s" % (v.__module__, v.__qualname__)
    else:
        return v, "<%s.%s pid %d #%x>" % (
            t.__module__, t.__qualname__, _os.getpid(), id(v))
    if len(r) > 120:
        import hashlib
        r = r[:96] + "...#" + hashlib.sha1(r.encode()).hexdigest()[:12]
    return r, r


def _watch(code, frame, resumes):
    # [start, items]: *start* is the offset a generator's first entry
    # reports when the hook also sees its resumes (settrace does), and
    # each item is [label, name, first value seen or _MISSING].
    if code.co_filename == "<string>" and code.co_name == "__init__":
        names = []
        if code.co_varnames:
            for cls in type(frame.f_locals.get(code.co_varnames[0])).__mro__:
                names += _FIELDS.get((cls.__module__, cls.__qualname__), ())
        start = None
    else:
        names = _PARAMS.get((code.co_filename, code.co_firstlineno,
                             code.co_name), ())
        start = None
        if names and resumes and code.co_flags & _GENERATOR:
            import dis
            start = entry_offset(dis.get_instructions(code))
    return [start, [[label, name, _MISSING] for label, name in names]]


def _record(watch, frame):
    start, items = watch
    if start is not None and frame.f_lasti != start:
        return  # a generator resuming, not a call
    values = frame.f_locals
    for item in list(items):
        same, key = _value(values.get(item[1]))
        if item[2] is _MISSING:
            item[2] = same
        elif item[2] is same or (type(same) is str and item[2] == same):
            continue
        elif item in items:  # a second value: stop watching this name
            items.remove(item)
        _os.write(_FD, ("=\\t%s\\t%s\\n" % (item[0], key)).encode())


if hasattr(_sys, "monitoring"):
    _mon = _sys.monitoring
    _watched = {{}}

    def _start(code, offset):
        watch = _watched.get(code)
        if watch is None:
            if code.co_filename.startswith(_ROOT):
                _write(code)
            # PY_START fires on a call, never on a generator's resume.
            watch = _watched[code] = _watch(code, _sys._getframe(1), False)
        if not watch[1]:
            return _mon.DISABLE
        _record(watch, _sys._getframe(1))

    _mon.use_tool_id(_mon.COVERAGE_ID, "reach")
    _mon.register_callback(_mon.COVERAGE_ID, _mon.events.PY_START, _start)
    _mon.set_events(_mon.COVERAGE_ID, _mon.events.PY_START)
else:
    import threading as _threading

    _watched = {{}}

    def _trace(frame, event, arg):
        code = frame.f_code
        watch = _watched.get(code)
        if watch is None:
            if code.co_filename.startswith(_ROOT):
                _write(code)
            watch = _watched[code] = _watch(code, frame, True)
        if watch[1]:
            _record(watch, frame)

    _sys.settrace(_trace)
    _threading.settrace(_trace)
'''


def hook_env(hook_dir: Path, root: Path, log: Path,
             extra_path: Sequence[Path] = ()) -> Dict[str, str]:
    """An environment whose Python processes log what they run under *root*."""
    hook_dir.mkdir(parents=True, exist_ok=True)
    (hook_dir / "sitecustomize.py").write_text(
        _HOOK.format(root=str(root.resolve()) + os.sep, log=str(log),
                     entry_offset=inspect.getsource(entry_offset)))
    env = dict(os.environ)
    for name in ("REPRO_SCALE", "REPRO_SAMPLES", "REPRO_JOBS",
                 "REPRO_JOURNAL", "REPRO_FAULTS", "REACH_VALUES"):
        env.pop(name, None)
    env["PYTHONPATH"] = os.pathsep.join(
        str(p) for p in (hook_dir, root, *extra_path))
    return env


def _log_lines(log: Path) -> List[List[str]]:
    return ([line.split("\t", 2) for line in log.read_text().splitlines()]
            if log.exists() else [])


def read_log(log: Path) -> Set[Tuple[str, int, str]]:
    """The code objects the log's processes ran."""
    return {(path, int(first), name)
            for path, first, name in _log_lines(log) if path != "="}


def read_values(log: Path) -> Dict[str, Set[str]]:
    """``Setting.id`` -> the distinct values the log's processes gave it."""
    values: Dict[str, Set[str]] = {}
    for mark, label, value in _log_lines(log):
        if mark == "=":
            values.setdefault(label, set()).add(value)
    return values


class ValueWatch:
    """The table of settable values the hook still watches.  Before each
    step that counts values, ``refresh`` drops every setting that has
    already shown two, so later steps pay nothing for it."""

    def __init__(self, table: Path, log: Path, settings: Sequence[Setting]):
        self.table, self.log, self.settings = table, log, list(settings)

    def refresh(self) -> None:
        seen = read_values(self.log)
        params: Dict[Tuple[str, int, str], list] = {}
        fields: Dict[Tuple[str, str], list] = {}
        for st in self.settings:
            if len(seen.get(st.id, ())) >= 2:
                continue
            if st.first:
                key = st.path, st.first, st.qualname.rsplit(".", 1)[-1]
                params.setdefault(key, []).append([st.id, st.name])
            else:
                fields.setdefault((st.module, st.qualname), []).append(
                    [st.id, st.name])
        self.table.write_text(json.dumps({
            "params": [[*k, w] for k, w in params.items()],
            "fields": [[*k, w] for k, w in fields.items()]}))


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


def classify_values(settings: Iterable[Setting],
                    values: Dict[str, Set[str]]) -> Dict[str, List[Setting]]:
    out: Dict[str, List[Setting]] = {"one": [], "more": [], "none": []}
    for st in settings:
        n = len(values.get(st.id, ()))
        out["one" if n == 1 else "more" if n else "none"].append(st)
    return out


def value_summary(options: Dict[str, List[Setting]], keep: Iterable[str]) -> str:
    keep = set(keep)
    one = options["one"]
    return (f"{sum(map(len, options.values()))} settable values; one value "
            f"in use {len(one)} ({sum(st.id in keep for st in one)} kept); "
            f"two or more {len(options['more'])}; none in use "
            f"{len(options['none'])}")


def summary(classes: Dict[str, List[Func]]) -> str:
    def count(name):
        fs = classes[name]
        return len(fs), sum(f.lines for f in fs)

    a, t, u = count("reached"), count("test-only"), count("unreached")
    return (f"{a[0] + t[0] + u[0]} functions; reached {a[0]} ({a[1]} lines); "
            f"test-only {t[0]} ({t[1]}); unreached {u[0]} ({u[1]})")


# -- DESIGN's kept tables ----------------------------------------------------------

_KEPT_ROW = re.compile(r"^\|\s*`([\w.]+:[\w.]+)`\s*\|")
_OPTION_ROW = re.compile(r"^\|\s*`([\w.]+:[\w.]+\(\w+\))`\s*\|")


def _table(heading: str, row: "re.Pattern", design: Path) -> Dict[str, str]:
    """First cell -> second, for the rows under the heading that names
    *heading* and before the next heading."""
    rows: Dict[str, str] = {}
    inside = False
    for line in design.read_text().splitlines():
        if line.startswith("#"):
            inside = heading in line
            continue
        m = row.match(line) if inside else None
        if m:
            rows[m.group(1)] = line.split("|")[2].strip()
    return rows


def kept(design: Path = DESIGN) -> Dict[str, str]:
    """``module:qualname`` -> reason, from DESIGN's kept function table."""
    return _table(KEPT_HEADING, _KEPT_ROW, design)


def kept_options(design: Path = DESIGN) -> Dict[str, str]:
    """``module:qualname(name)`` -> where its values come from, from
    DESIGN's table of options with one value in use."""
    return _table(OPTIONS_HEADING, _OPTION_ROW, design)


# -- the artifact set --------------------------------------------------------------

def _m(module: str, *args: str) -> List[str]:
    return [PY, "-m", module, *args]


SMOKE = {"REPRO_SCALE": "smoke"}
SMALL = {"REPRO_SCALE": "small"}
BENCH = ("-p", "no:cacheprovider", "-o", "addopts=",
         "-o", "python_files=bench_*.py", "-q")

# Inline steps of ci.yml, cut to the calls they make into src/.
_FAIL2_PLAN = """\
from repro.faults import FaultEvent, FaultPlan
FaultPlan(events=tuple(
    FaultEvent(time=0.05, kind="ost_fail", target=o) for o in (0, 1)
)).save_json("fail2.json")
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
    values: bool = True  # False: the values it sets are not "in use"


def _step(*argv: str, env: Optional[Dict[str, str]] = None,
          ok: Tuple[int, ...] = (0,), kill_after_done: int = 0,
          values: bool = True) -> Step:
    return Step(list(argv), dict(env or {}), ok, kill_after_done, values)


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
        _step(*_m(exp, "qos", "--scale", "smoke", "--trace", "tq.json")),
        _step(*_m(tr, "tq.json", "--check")),
        _step(*_m(tr, "tq.json", "--top", "1")),
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
        # examples/ show a reader the API: what they reach counts, the
        # values they set do not (a value only an example sets is not
        # in use by the system).
        *(_step(PY, str(REPO / "examples" / name), values=False) for name in (
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
              verbose: bool = True,
              watch: Optional[ValueWatch] = None) -> List[str]:
    """Run *steps*; return a line per step that exited as it should not.
    With *watch*, the steps that count values also log them."""
    bad = []
    for step in steps:
        t0 = time.perf_counter()
        step_env = {**env, **step.env}
        if watch is not None and step.values:
            watch.refresh()
            step_env["REACH_VALUES"] = str(watch.table)
        proc = subprocess.Popen(step.argv, cwd=cwd, env=step_env,
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
    """Run both sets; return (function classes, option classes, the
    values each option took, bad step lines)."""
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
        settings = settables(SRC)
        bad = run_steps(artifact_steps(),
                        hook_env(tmp / "hook-a", SRC, logs[0], [work]), work,
                        verbose, ValueWatch(tmp / "watch.json", logs[0],
                                            settings))
        if verbose:
            print("tier-1:", file=sys.stderr)
        bad += run_steps(tier1_steps(),
                         hook_env(tmp / "hook-t", SRC, logs[1]), REPO, verbose)
        classes = classify(functions(SRC), read_log(logs[0]),
                           read_log(logs[1]))
        values = read_values(logs[0])
    return classes, classify_values(settings, values), values, bad


def report(classes: Dict[str, List[Func]], keep: Dict[str, str],
           options: Dict[str, List[Setting]], keep_options: Dict[str, str],
           values: Dict[str, Set[str]]) -> List[str]:
    lines = [summary(classes), value_summary(options, keep_options)]
    by_module: Dict[str, List[str]] = {}
    for name in ("test-only", "unreached"):
        for f in classes[name]:
            mark = "kept" if f.id in keep else "NEW "
            by_module.setdefault(f.module, []).append(
                f"  {mark} {name:<9} {f.qualname} ({f.lines})")
    for st in options["one"]:
        mark = "kept" if st.id in keep_options else "NEW "
        (value,) = values[st.id]
        by_module.setdefault(st.module, []).append(
            f"  {mark} one value {st.qualname}({st.name}) = {value}")
    for module in sorted(by_module):
        lines.append(module)
        lines.extend(by_module[module])
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m tests.reach",
        description="Which functions in src/ the artifact set and the "
        "tier-1 suite reach, and which settable values the artifact set "
        "runs with one value.")
    parser.add_argument(
        "--check", action="store_true",
        help="exit 1 if a function the artifact set does not reach is "
        "missing from DESIGN's kept table, a settable value the artifact "
        "set runs with one value is missing from DESIGN's options table, "
        "or an artifact step failed")
    args = parser.parse_args(argv)
    t0 = time.perf_counter()
    classes, options, values, bad = audit()
    keep, keep_options = kept(), kept_options()
    print("\n".join(report(classes, keep, options, keep_options, values)))
    missing = [f"not reached and not kept: {f.id}"
               for name in ("test-only", "unreached")
               for f in classes[name] if f.id not in keep]
    missing += [f"one value in use and not kept: {st.id}"
                for st in options["one"] if st.id not in keep_options]
    reached_kept = sorted(f.id for f in classes["reached"] if f.id in keep)
    if reached_kept:
        print("kept but reached: " + ", ".join(reached_kept))
    varied_kept = sorted(st.id for st in options["more"]
                         if st.id in keep_options)
    if varied_kept:
        print("kept but set with two values or more: "
              + ", ".join(varied_kept))
    for line in bad:
        print(line)
    print(f"[{time.perf_counter() - t0:.0f}s wall]")
    if args.check and (missing or bad):
        print("\n".join(missing))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
