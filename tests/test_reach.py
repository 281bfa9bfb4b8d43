"""The reachability audit (``python -m tests.reach``) on toy packages,
and DESIGN's kept tables against ``src/``."""

import dis
import sys
import textwrap
from types import SimpleNamespace

import pytest

from tests import reach

TOY = '''\
import functools
import multiprocessing


def deco(fn):
    @functools.wraps(fn)
    def wrapper(*args):
        return fn(*args)
    return wrapper


@deco
def decorated():
    return 1


def outer():
    def inner():
        return 2
    return inner()


class Box:
    def method(self):
        return 3

    def unused(self):
        return 4


def in_worker(x):
    return x + 1


def via_pool():
    with multiprocessing.get_context("fork").Pool(1) as pool:
        return pool.map(in_worker, [1])


def only_tests():
    return 5


def never():
    return 6
'''

ARTIFACT = ("import toy.mod as m; m.decorated(); m.outer(); m.Box().method(); "
            "assert m.via_pool() == [2]")
TIER1 = "import toy.mod as m; m.only_tests()"


def _audit(tmp_path):
    root = tmp_path / "src"
    (root / "toy").mkdir(parents=True)
    (root / "toy" / "__init__.py").write_text("")
    (root / "toy" / "mod.py").write_text(TOY)
    keys = []
    for name, code in (("artifact", ARTIFACT), ("tier1", TIER1)):
        log = tmp_path / f"{name}.log"
        env = reach.hook_env(tmp_path / f"hook-{name}", root, log)
        bad = reach.run_steps([reach.Step([sys.executable, "-c", code], {})],
                              env, tmp_path, verbose=False)
        assert bad == []
        keys.append(reach.read_log(log))
    funcs = reach.functions(root)
    return funcs, reach.classify(funcs, *keys)


def test_classifier_on_a_toy_package(tmp_path):
    funcs, classes = _audit(tmp_path)
    names = {k: {f.qualname for f in fs} for k, fs in classes.items()}
    # A decorated def is matched by its first decorator's line, a nested
    # def and a method by their qualified names, and a function that
    # runs only in a forked pool worker (which leaves through os._exit)
    # still counts as reached.
    assert names["reached"] == {"deco", "deco.wrapper", "decorated", "outer",
                                "outer.inner", "Box.method", "in_worker",
                                "via_pool"}
    assert names["test-only"] == {"only_tests"}
    assert names["unreached"] == {"Box.unused", "never"}
    by_name = {f.qualname: f for f in funcs}
    assert by_name["decorated"].first == 12  # the @deco line
    assert (by_name["outer"].lines, by_name["outer.inner"].lines) == (2, 2)
    assert all(f.module == "toy.mod" for f in funcs)
    assert reach.summary(classes) == (
        "11 functions; reached 8 (19 lines); test-only 1 (2); "
        "unreached 2 (4)")


def test_first_line_includes_decorators(tmp_path):
    (tmp_path / "m.py").write_text(textwrap.dedent('''\
        import functools


        @functools.lru_cache
        @staticmethod
        def f():
            pass
        '''))
    (f,) = reach.functions(tmp_path)
    assert (f.first, f.lines) == (4, 4)


def test_kept_table_names_existing_defs():
    """Every row of DESIGN's kept table names a def in src/ (AST only),
    so a deleted or renamed function cannot linger in the table."""
    kept = reach.kept()
    assert kept, "DESIGN's kept table is empty or its heading moved"
    defs = {f.id for f in reach.functions()}
    assert sorted(set(kept) - defs) == []
    assert all(reason for reason in kept.values())


OPTS = '''\
import dataclasses
import multiprocessing


def twice(x, width=8):
    return x


def left(x, width=8, *, mode="a"):
    return x


def forked(level=1):
    return level


def _in_worker(v):
    return forked(level=v)


def via_pool():
    with multiprocessing.get_context("fork").Pool(1) as pool:
        return pool.map(_in_worker, [2])


def example_only(scale=1):
    return scale


def stepped(n=1):
    n += 1
    yield n
    yield n


def never(x=0):
    return x


def _private(x=1):
    return x


@dataclasses.dataclass(frozen=True)
class Conf:
    size: int = 4
    name: str = "x"
    memo: dict = dataclasses.field(default_factory=dict, init=False)
'''

# The artifact set: the second step, tagged as an example, sets values
# that must not count.
OPTS_ARTIFACT = ("import toy.opts as o; o.twice(1); o.twice(1, width=9); "
                 "o.left(1); o.forked(); assert o.via_pool() == [2]; "
                 "o.example_only(); list(o.stepped()); o._private(); "
                 "o.Conf(); o.Conf(name='y')")
OPTS_EXAMPLE = "import toy.opts as o; o.example_only(scale=5); o.left(2, 3)"


def test_value_collector_on_a_toy_package(tmp_path):
    root = tmp_path / "src"
    (root / "toy").mkdir(parents=True)
    (root / "toy" / "__init__.py").write_text("")
    (root / "toy" / "opts.py").write_text(OPTS)
    log = tmp_path / "artifact.log"
    settings = reach.settables(root)
    watch = reach.ValueWatch(tmp_path / "watch.json", log, settings)
    steps = [reach.Step([sys.executable, "-c", OPTS_ARTIFACT], {}),
             reach.Step([sys.executable, "-c", OPTS_EXAMPLE], {},
                        values=False)]
    bad = reach.run_steps(steps, reach.hook_env(tmp_path / "hook", root, log),
                          tmp_path, verbose=False, watch=watch)
    assert bad == []
    values = reach.read_values(log)
    options = reach.classify_values(settings, values)
    ids = {k: {st.id.split(":")[1] for st in v} for k, v in options.items()}
    # Two values from one process, or a second one only in a forked pool
    # worker, make a setting multi-valued; a default never overridden, a
    # value only an example sets, and a generator's rebinding of its own
    # parameter between resumes do not.  A dataclass field is recorded at
    # the generated __init__; an init=False field and a private def's
    # parameter are not settings.
    assert ids == {
        "more": {"twice(width)", "forked(level)", "Conf(name)"},
        "one": {"left(width)", "left(mode)", "example_only(scale)",
                "stepped(n)", "Conf(size)"},
        "none": {"never(x)"},
    }
    assert values["toy.opts:left(width)"] == {"8"}
    assert values["toy.opts:Conf(size)"] == {"4"}
    assert reach.value_summary(options, {"toy.opts:left(width)"}) == (
        "9 settable values; one value in use 5 (1 kept); two or more 3; "
        "none in use 1")


def test_generator_entry_without_resume():
    """Python 3.10's generator code has no ``RESUME``: it starts with
    ``GEN_START``, and its first entry shows ``f_lasti`` -1."""
    code_310 = [SimpleNamespace(opname=op, offset=2 * i) for i, op in
                enumerate(("GEN_START", "LOAD_FAST", "YIELD_VALUE",
                           "POP_TOP", "LOAD_CONST", "RETURN_VALUE"))]
    assert reach.entry_offset(code_310) == -1
    assert reach.entry_offset([]) == -1


@pytest.mark.skipif(hasattr(sys, "monitoring"),
                    reason="the hook uses sys.monitoring, which reports "
                    "a generator's start and its resumes apart")
def test_generator_entry_offset_under_settrace():
    """Under ``sys.settrace`` a generator's first entry, and only that
    one, shows the offset ``entry_offset`` finds in its code."""
    def gen(n):
        yield n
        yield n

    entries = []

    def tracer(frame, event, arg):
        if event == "call" and frame.f_code is gen.__code__:
            entries.append(frame.f_lasti)

    old = sys.gettrace()
    sys.settrace(tracer)
    try:
        list(gen(1))
    finally:
        sys.settrace(old)
    first = reach.entry_offset(dis.get_instructions(gen.__code__))
    assert len(entries) == 3  # the start and two resumes
    assert entries[0] == first
    assert first not in entries[1:]


def test_option_table_names_existing_settings():
    """Every row of DESIGN's table of options with one value in use
    names a settable value in src/ (AST only) and says where its value
    comes from."""
    rows = reach.kept_options()
    assert rows, "DESIGN's options table is empty or its heading moved"
    ids = {st.id for st in reach.settables()}
    assert sorted(set(rows) - ids) == []
    assert all(source for source in rows.values())
