"""Plain-text table and series rendering for benchmark output."""

from __future__ import annotations

from typing import List, Sequence

__all__ = ["format_table"]


def _fmt(value, width: int) -> str:
    if isinstance(value, float):
        if value == 0 or 0.01 <= abs(value) < 1e6:
            s = f"{value:.2f}"
        else:
            s = f"{value:.3g}"
    else:
        s = str(value)
    return s.rjust(width)


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence],
    title: str = "",
) -> str:
    """Fixed-width table with a rule under the header."""
    cols = len(headers)
    for r in rows:
        if len(r) != cols:
            raise ValueError(
                f"row {r!r} has {len(r)} cells, expected {cols}"
            )
    widths = [len(h) for h in headers]
    rendered: List[List[str]] = []
    for r in rows:
        cells = []
        for i, v in enumerate(r):
            s = _fmt(v, 0).strip()
            widths[i] = max(widths[i], len(s))
            cells.append(s)
        rendered.append(cells)
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.rjust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for cells in rendered:
        lines.append(
            "  ".join(c.rjust(w) for c, w in zip(cells, widths))
        )
    return "\n".join(lines)
