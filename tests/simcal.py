"""Calendar inspection for tests."""


def next_instant(env) -> float:
    """Instant of the next live calendar entry, or ``inf`` when none.

    Cancelled entries are skipped, as the run loop skips them.
    """
    live = [when for when, _, _, entry in env._queue if not entry._cancelled]
    return min(live, default=float("inf"))
