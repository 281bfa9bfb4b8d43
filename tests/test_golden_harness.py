"""The golden harness itself: its leaf diff, its failure message and
its registry (``tests/golden.py``)."""

import math

import pytest

from tests import golden
from tests.golden import MISSING, Fixture, leaves

OLD = {
    "env_now": 0.1,
    "completion": "2.5",
    "rates": ["0x1.8p+1", "0x1.0000000000000p+0"],
    "digest": "12f897e97214620f",
    "per_writer": [[0, "0.5"], [1, "0.75"]],
    "gone": 3,
    "same": {"a": "1e-05", "b": [1, None]},
}
NEW = {
    **OLD,
    "env_now": math.nextafter(0.1, 1.0),
    "completion": "2.525",
    "rates": ["0x1.cp+1", "0x1.0000000000000p+0"],
    "digest": "12f897e97214620e",
    "per_writer": [[0, "0.5"], [1, "0.75"], [2, "1.0"]],
    "new": {"x": 1},
}
del NEW["gone"]


def test_leaves_lists_exactly_the_moved_leaves():
    moved = leaves(OLD, NEW)
    assert [leaf[:3] for leaf in moved] == [
        (".completion", "2.5", "2.525"),
        (".digest", "12f897e97214620f", "12f897e97214620e"),
        (".env_now", 0.1, math.nextafter(0.1, 1.0)),
        (".gone", 3, MISSING),
        (".new", MISSING, {"x": 1}),
        (".per_writer[2]", MISSING, [2, "1.0"]),
        (".rates[0]", "0x1.8p+1", "0x1.cp+1"),
    ]
    moves = [leaf[3] for leaf in moved]
    assert moves[0] == pytest.approx(0.01)
    assert moves[1] is None
    assert moves[2] == pytest.approx(2.0 ** -56 / 0.1)
    assert moves[3:6] == [None, None, None]
    assert moves[6] == pytest.approx(0.5 / 3.0)


def test_leaves_of_equal_documents_is_empty():
    assert leaves(OLD, dict(OLD)) == []


def test_moves_from_zero_or_infinity_are_infinite():
    assert leaves(["0.0", "inf"], ["1.0", "-inf"]) == [
        ("[0]", "0.0", "1.0", math.inf), ("[1]", "inf", "-inf", math.inf),
    ]


def _fixture(cells: dict) -> Fixture:
    return Fixture("synthetic", "cells", tuple(cells), lambda i: cells[i])


def test_diff_reports_cells_leaves_and_largest_move_per_key():
    fixture = _fixture({"a": NEW, "b": {"events_scheduled": 10}, "c": {}})
    old = {"cells": {"a": OLD, "b": {"events_scheduled": 8}, "d": {}}}
    report = golden.diff(fixture, old)
    assert report[0] == (
        "synthetic: 8 leaves moved in 2 cells, 1 cells added, 1 removed; "
        "largest move per key: completion +1.000e-02, digest changed, "
        "env_now +1.388e-16, events_scheduled +2.500e-01, gone changed, "
        "new changed, per_writer changed, rates +1.667e-01"
    )
    assert report[1:3] == ["  removed cell d", "  added cell c"]
    assert "  b.events_scheduled: 8 -> 10 (+2.500e-01)" in report
    assert len(report) == 3 + 8


def test_diff_of_an_unmoved_fixture_is_empty():
    fixture = _fixture({"a": NEW})
    assert golden.diff(fixture, {"cells": {"a": NEW}}) == []


def test_a_failing_check_lists_the_moved_leaves():
    fixture = _fixture({})
    with pytest.raises(pytest.fail.Exception) as failed:
        fixture.check("a", NEW, expected=OLD)
    text = str(failed.value)
    assert text.startswith("7 leaves moved against the fixture:")
    assert '  a.rates[0]: "0x1.8p+1" -> "0x1.cp+1" (+1.667e-01)' in text
    with pytest.raises(pytest.fail.Exception) as failed:
        fixture.check("a", {"trace": [2], "x": 0}, expected={"trace": [1]},
                      first="trace")
    assert str(failed.value).splitlines()[1:] == [
        "  a.trace[0]: 1 -> 2 (+1.000e+00)"
    ]


def test_registry_covers_every_fixture_file():
    registry = golden.load_all()
    files = sorted(p.stem for p in golden.GOLDENS.iterdir())
    assert files == sorted(registry)
    for fixture in registry.values():
        assert list(fixture.cells) == list(fixture.ids), fixture.name
