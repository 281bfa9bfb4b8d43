"""Tests for the units helpers and the error hierarchy."""

import pytest

from repro import errors
from repro.units import (
    GB,
    KB,
    MB,
    TB,
    fmt_bytes,
    fmt_rate,
)


class TestUnits:
    def test_decimal_prefixes(self):
        assert KB == 1_000
        assert MB == 1_000_000
        assert GB == 1_000_000_000
        assert TB == 1_000_000_000_000

    def test_paper_arithmetic(self):
        # "200 MB per process yields 3 TB" for ~15 000 processes...
        # the paper's own numbers: 150 000 procs x 200 MB = 30 TB per
        # 10 output steps, i.e. 3 TB every 30 minutes at 15k procs.
        assert 15_000 * 200 * MB == pytest.approx(3 * TB)
        # "672 OSTs x 180 MB/s" is within the paper's 60-90 GB/s
        # theoretical-peak window (accounting for network overheads).
        assert 672 * 180 * MB > 60 * GB

    def test_fmt_bytes(self):
        assert fmt_bytes(3e9) == "3.00 GB"
        assert fmt_bytes(1.5e6) == "1.50 MB"
        assert fmt_bytes(2_000) == "2.00 KB"
        assert fmt_bytes(999) == "999 B"
        assert fmt_bytes(2.5e12) == "2.50 TB"

    def test_fmt_rate(self):
        assert fmt_rate(2.5e9) == "2.50 GB/s"


class TestErrorHierarchy:
    def test_all_are_repro_errors(self):
        for name in errors.__all__:
            cls = getattr(errors, name)
            if name == "ReproError":
                continue
            assert issubclass(cls, errors.ReproError), name

    def test_configuration_error_is_value_error(self):
        assert issubclass(errors.ConfigurationError, ValueError)

    def test_file_not_found_is_key_error(self):
        assert issubclass(errors.FileNotFoundInNamespace, KeyError)

    def test_stripe_limit_is_value_error(self):
        assert issubclass(errors.StripeLimitExceeded, ValueError)

    def test_catchable_as_base(self):
        with pytest.raises(errors.ReproError):
            raise errors.ProtocolError("x")
        with pytest.raises(errors.FileSystemError):
            raise errors.StripeLimitExceeded("y")
