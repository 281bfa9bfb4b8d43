"""The reachability audit (``python -m tests.reach``) on a toy package,
and DESIGN's kept table against ``src/``."""

import sys
import textwrap

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
