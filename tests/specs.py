"""Machine specs the tests build often."""

from dataclasses import replace

from repro.machines import xtp


def small_xtp(n_blades: int):
    """XTP with a smaller blade pool."""
    spec = xtp()
    return spec.with_overrides(
        ost_config=replace(spec.ost_config, n_osts=n_blades))
