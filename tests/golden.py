"""One harness for every golden fixture under ``tests/goldens/``.

A fixture module registers its fixture once, at import: the JSON
file's stem, its top-level key, its cell ids in file order, and the
function that builds a cell's document.  Its tests compare a fresh
build with the file through :meth:`Fixture.check`, which fails with the
list of moved leaves.  Floats are pinned as ``repr`` strings
(:func:`num`) or ``float.hex`` strings (:func:`hexnum`), so a
comparison is exact.

Regenerate fixtures (only when a change to the simulated physics is
intended and explained), or list every leaf that moved against a git
revision, with::

    PYTHONPATH=src python -m tests.golden regen [NAME...]
    PYTHONPATH=src python -m tests.golden diff REV
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import math
import re
import subprocess
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import pytest

GOLDENS = Path(__file__).parent / "goldens"
#: The modules that register a fixture.
MODULES = ("tests.test_static_goldens", "tests.test_adaptive_goldens",
           "tests.test_qos_goldens", "tests.test_noise_goldens",
           "tests.test_maxmin_goldens", "tests.test_adaptive_batched")
REGISTRY: dict = {}
#: Stands for the side of a leaf that one document lacks.
MISSING = type("Missing", (), {"__repr__": lambda self: "<missing>"})()
#: Leaves a failing test lists before it cuts the list short.
SHOWN = 50

_REPR = re.compile(r"-?(\d+\.\d*(e[+-]\d+)?|\d+e[+-]\d+|inf|nan)")
_HEX = re.compile(r"-?(0x[0-9a-f]+(\.[0-9a-f]*)?p[+-]\d+|inf|nan)")


def num(x) -> str:
    return repr(float(x))


def hexnum(x) -> str:
    return float(x).hex()


def canonical(doc):
    """What a fixture holds for ``doc``: a JSON round trip of it."""
    return json.loads(json.dumps(doc))


@dataclass(frozen=True)
class Fixture:
    name: str
    key: str
    ids: tuple
    build: Callable[[str], dict]

    @property
    def path(self) -> Path:
        return GOLDENS / f"{self.name}.json"

    @functools.cached_property
    def cells(self) -> dict:
        return json.loads(self.path.read_text())[self.key]

    def text(self) -> str:
        """The fixture file: one cell per line, so a diff names the cell."""
        docs = {i: json.dumps(self.build(i), sort_keys=True) for i in self.ids}
        lines = [f"{json.dumps(i)}: {doc}" for i, doc in docs.items()]
        return f'{{"{self.key}": {{\n' + ",\n".join(lines) + "\n}}\n"

    def check(self, cell_id: str, got: dict, expected: Optional[dict] = None,
              first: Optional[str] = None) -> None:
        """Fail with the moved leaves unless ``got`` equals ``expected``
        (by default the cell's fixture entry).  A moved ``first`` entry
        fails on its own, before the rest is compared."""
        expected = self.cells[cell_id] if expected is None else expected
        got = canonical(got)
        if first in expected:
            _fail(f"{cell_id}.{first}",
                  leaves(expected[first], got.pop(first, MISSING)))
            expected = {k: v for k, v in expected.items() if k != first}
        _fail(cell_id, leaves(expected, got))


def register(name: str, ids, build: Callable[[str], dict],
             key: str = "cells") -> Fixture:
    REGISTRY[name] = fixture = Fixture(name, key, tuple(ids), build)
    return fixture


def load_all() -> dict:
    for module in MODULES:
        importlib.import_module(module)
    return REGISTRY


def _number(v) -> Optional[float]:
    """``v`` as a float if it is a JSON number, a ``repr`` or a
    ``float.hex`` string; None for anything else."""
    if isinstance(v, str):
        return (float(v) if _REPR.fullmatch(v) else
                float.fromhex(v) if _HEX.fullmatch(v) else None)
    return float(v) if type(v) in (int, float) else None


def leaves(old, new, path: str = "") -> list:
    """Every leaf where ``new`` differs from ``old`` as ``(path, old,
    new, move)``: ``move`` is a numeric leaf's relative move (inf from
    zero or a non-finite value) and None for any other change."""
    if old == new:
        return []
    if isinstance(old, dict) and isinstance(new, dict):
        return [leaf for k in sorted(old.keys() | new.keys())
                for leaf in leaves(old.get(k, MISSING), new.get(k, MISSING),
                                   f"{path}.{k}")]
    if isinstance(old, list) and isinstance(new, list):
        pad = [MISSING] * abs(len(old) - len(new))
        return [leaf for i, (a, b) in enumerate(zip(old + pad, new + pad))
                for leaf in leaves(a, b, f"{path}[{i}]")]
    a, b = _number(old), _number(new)
    if a is None or b is None:
        return [(path, old, new, None)]
    if a == b:
        return [(path, old, new, 0.0)]
    finite = a != 0 and math.isfinite(a) and math.isfinite(b)
    return [(path, old, new, (b - a) / abs(a) if finite else math.inf)]


def _line(cell_id: str, leaf) -> str:
    path, *ends, move = leaf
    old, new = (repr(v) if v is MISSING else json.dumps(v)[:60] for v in ends)
    how = "changed" if move is None else f"{move:+.3e}"
    return f"  {cell_id}{path}: {old} -> {new} ({how})"


def _fail(where: str, moved: list) -> None:
    if moved:
        lines = [_line(where, leaf) for leaf in moved[:SHOWN]]
        if len(moved) > SHOWN:
            lines.append(f"  ... and {len(moved) - SHOWN} more")
        pytest.fail(f"{len(moved)} leaves moved against the fixture:\n"
                    + "\n".join(lines), pytrace=False)


def diff(fixture: Fixture, old: dict) -> list:
    """Report lines for every cell and leaf of ``fixture`` that a build
    from the working tree moves against ``old`` (a fixture document),
    ending in a summary with the largest move per output key."""
    old = old[fixture.key]
    removed = [i for i in old if i not in fixture.ids]
    added = [i for i in fixture.ids if i not in old]
    out = [f"  removed cell {i}" for i in removed]
    out += [f"  added cell {i}" for i in added]
    largest, n_leaves, n_cells = {}, 0, 0
    for cell_id in (i for i in fixture.ids if i in old):
        moved = leaves(old[cell_id], canonical(fixture.build(cell_id)))
        n_leaves, n_cells = n_leaves + len(moved), n_cells + bool(moved)
        for leaf in moved:
            out.append(_line(cell_id, leaf))
            key, move = re.match(r"\.?([^.[]*)", leaf[0])[1], leaf[3]
            if move is not None and abs(move) >= abs(largest.get(key) or 0):
                largest[key] = move
            largest.setdefault(key, None)
    moves = ", ".join(f"{k} {'changed' if m is None else f'{m:+.3e}'}"
                      for k, m in sorted(largest.items()))
    return out and [f"{fixture.name}: {n_leaves} leaves moved in {n_cells} "
                    f"cells, {len(added)} cells added, {len(removed)} "
                    f"removed; largest move per key: {moves or 'none'}"] + out


def _git(*args) -> subprocess.CompletedProcess:
    return subprocess.run(["git", *args], cwd=GOLDENS, capture_output=True,
                          text=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m tests.golden")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("regen").add_argument("names", nargs="*", metavar="NAME")
    sub.add_parser("diff").add_argument("rev", metavar="REV")
    args = parser.parse_args(argv)
    fixtures = load_all()
    if args.command == "regen":
        for name in args.names or fixtures:
            if name not in fixtures:
                parser.error(f"no fixture {name!r}; known: {list(fixtures)}")
            fixtures[name].path.write_text(fixtures[name].text())
            print(f"wrote {len(fixtures[name].ids)} cells to {name}")
        return 0
    if _git("rev-parse", "--verify", f"{args.rev}^{{commit}}").returncode:
        parser.error(f"not a git revision: {args.rev}")
    moved = False
    for fixture in fixtures.values():
        old = _git("show", f"{args.rev}:./{fixture.path.name}")
        lines = (diff(fixture, json.loads(old.stdout)) if old.returncode == 0
                 else [f"{fixture.name}: absent at {args.rev}"])
        print(*lines, sep="\n", end="\n" if lines else "")
        moved = moved or bool(lines)
    return int(moved)


if __name__ == "__main__":
    # Run as a script this file is ``__main__``, while the fixture
    # modules register with the importable ``tests.golden``.
    from tests.golden import main as _main

    raise SystemExit(_main())
