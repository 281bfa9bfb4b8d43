"""Application data models: variables, sizes, index generation."""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.index import (
    Characteristics,
    IndexEntry,
    PristineChecksums,
    entry_serialized_bytes,
)

__all__ = ["Variable", "AppKernel"]

_DTYPE_BYTES = {
    "f8": 8,
    "f4": 4,
    "i8": 8,
    "i4": 4,
}


@dataclass(frozen=True)
class Variable:
    """One output variable as seen per process.

    Parameters
    ----------
    name:
        Variable name in the output set.
    shape:
        Per-process block shape.
    dtype:
        Element type code ("f8", "f4", "i8", "i4").
    value_range:
        Physical range the synthetic characteristics are drawn from.
    """

    name: str
    shape: Tuple[int, ...]
    dtype: str = "f8"
    value_range: Tuple[float, float] = (-1.0, 1.0)

    def __post_init__(self):
        if self.dtype not in _DTYPE_BYTES:
            raise ValueError(f"unknown dtype {self.dtype!r}")
        if any(d < 1 for d in self.shape):
            raise ValueError("shape dims must be >= 1")
        lo, hi = self.value_range
        if lo > hi:
            raise ValueError("value_range must be (low, high)")
        # Precomputed: count/nbytes are read per (rank, var) on the
        # index hot path — n_ranks * n_vars times per output.
        n = 1
        for d in self.shape:
            n *= d
        object.__setattr__(self, "_count", n)
        object.__setattr__(self, "_nbytes", float(n * _DTYPE_BYTES[self.dtype]))

    @property
    def count(self) -> int:
        return self._count

    @property
    def nbytes(self) -> float:
        return self._nbytes


_TWO_U64 = struct.Struct("<QQ")  # digest bytes 8..24, two LE u64s


def _min_max(digest: bytes, var: Variable) -> Tuple[float, float]:
    """Synthetic (min, max) of one block from its (app, rank, var)
    digest, inside the variable's value range."""
    lo, hi = var.value_range
    span = hi - lo
    x, y = _TWO_U64.unpack_from(digest, 8)
    a = lo + span * (x / 2.0**64)
    b = lo + span * (y / 2.0**64)
    if b < a:
        a, b = b, a
    return float(a), float(b)


class AppKernel:
    """An application's per-process output model.

    Every process emits the same variable set (weak scaling), so the
    kernel is shared across ranks; per-rank synthetic characteristics
    are derived deterministically from (app, rank, var).

    ``checksums`` (default on) makes every index entry carry a
    per-block content checksum and every write register its blocks
    with the storage layer, enabling read-back verification and
    scrubbing.  Turn it off to model checksum-free output (blocks
    classify as unverified, silent corruption goes undetected).

    One rank's output is handed to the storage and index layers as
    columns, never as a Python object per block: :meth:`blocks_of`
    gives ``(sizes, checksums)`` for ``FileSystem.write`` and
    ``LocalIndex.add_output`` reads :attr:`var_names`,
    :attr:`block_sizes` and :attr:`block_counts`.  The digests — one
    blake2b checksum (:func:`~repro.core.index.block_checksum`) and one
    sha256 characteristics digest per (rank, variable) — are pure
    functions of (app, rank, variable, size), so the kernel computes
    them only when asked and keeps none: ``blocks_of`` hands over a
    :class:`~repro.core.index.PristineChecksums`, and the ledgers that
    store it derive a value the first time a reader needs it (DESIGN
    §9d).
    """

    def __init__(self, name: str, variables: List[Variable],
                 checksums: bool = True):
        if not variables:
            raise ValueError("an app kernel needs at least one variable")
        names = [v.name for v in variables]
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable names")
        self.name = name
        self.variables: Tuple[Variable, ...] = tuple(variables)
        self.checksums = bool(checksums)
        self.var_names: Tuple[str, ...] = tuple(names)
        self.block_sizes: Tuple[float, ...] = tuple(
            v.nbytes for v in variables
        )
        self.block_counts: Tuple[int, ...] = tuple(
            v.count for v in variables
        )
        self._no_checksums: Tuple[None, ...] = (None,) * len(variables)
        self._by_name: Dict[str, Variable] = dict(zip(names, variables))

    def block_checksums(self, rank: int) -> Sequence[Optional[int]]:
        """:func:`~repro.core.index.block_checksum` of each of one
        rank's blocks, computed on access (all None when checksums are
        off)."""
        if not self.checksums:
            return self._no_checksums
        return PristineChecksums(self, rank)

    def min_max(self, rank: int, var_name: str) -> Tuple[float, float]:
        """Synthetic ``(min, max)`` of one rank's block of a variable."""
        var = self._by_name[var_name]
        return _min_max(self._var_digest(rank, var), var)

    @property
    def index_nbytes(self) -> float:
        """Serialized size of one rank's local index entries, from the
        variable names and the checksum flag alone (no digest)."""
        return float(sum(
            entry_serialized_bytes(name, True, self.checksums)
            for name in self.var_names
        ))

    def blocks_of(
        self, rank: int
    ) -> Tuple[Tuple[float, ...], Sequence[Optional[int]]]:
        """``(sizes, checksums)`` of one rank's variable blocks.

        What a writer hands to :meth:`FileSystem.write` so the storage
        layer records the blocks it absorbed, laid back to back from the
        write's offset; matches :meth:`index_entries` block for block.
        """
        return self.block_sizes, self.block_checksums(rank)

    def data_blocks(
        self, rank: int, base_offset: float
    ) -> Iterator[Tuple[float, float, Optional[int]]]:
        """``(offset, nbytes, checksum)`` per variable block of one rank
        laid from ``base_offset``: what a writer's read-back check
        (:func:`~repro.core.integrity.verify_stored`) compares."""
        offset = base_offset
        for nb, checksum in zip(self.block_sizes,
                                self.block_checksums(rank)):
            yield offset, nb, checksum
            offset += nb

    @property
    def per_process_bytes(self) -> float:
        return float(sum(v.nbytes for v in self.variables))

    def total_bytes(self, n_ranks: int) -> float:
        return self.per_process_bytes * n_ranks

    def _var_digest(self, rank: int, var: Variable) -> bytes:
        return hashlib.sha256(
            f"{self.name}:{rank}:{var.name}".encode()
        ).digest()

    def _var_rng(self, rank: int, var: Variable) -> np.random.Generator:
        digest = self._var_digest(rank, var)
        return np.random.default_rng(int.from_bytes(digest[:8], "little"))

    def characteristics_of(self, rank: int, var: Variable) -> Characteristics:
        """Deterministic synthetic min/max for one rank's block.

        Derived straight from the (app, rank, var) digest, with no
        numpy Generator per call (~12us each): the index layer needs
        this for n_ranks * n_vars blocks per output.
        """
        lo, hi = _min_max(self._var_digest(rank, var), var)
        return Characteristics(lo, hi, var.count)

    def index_entries(
        self,
        rank: int,
        base_offset: float,
        with_characteristics: bool = True,
    ) -> List[IndexEntry]:
        """The local index of one rank's output at ``base_offset``.

        Variables are laid out back-to-back in declaration order, the
        ADIOS process-group layout.  Built as objects for readers and
        tests; transports index a rank with ``LocalIndex.add_output``.
        """
        checksums = self.block_checksums(rank)
        entries: List[IndexEntry] = []
        offset = base_offset
        for i, var in enumerate(self.variables):
            entries.append(
                IndexEntry(
                    var=var.name,
                    writer=rank,
                    offset=offset,
                    nbytes=var.nbytes,
                    characteristics=(
                        self.characteristics_of(rank, var)
                        if with_characteristics else None
                    ),
                    checksum=checksums[i],
                )
            )
            offset += var.nbytes
        return entries

    def sample_block(self, rank: int, var_name: str, n: int = 64) -> np.ndarray:
        """A small representative data block (tests / examples only)."""
        var = next((v for v in self.variables if v.name == var_name), None)
        if var is None:
            raise KeyError(f"{self.name} has no variable {var_name!r}")
        rng = self._var_rng(rank, var)
        lo, hi = var.value_range
        return rng.uniform(lo, hi, size=min(n, var.count))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"AppKernel({self.name!r}, {len(self.variables)} vars, "
            f"{self.per_process_bytes / 1e6:.1f} MB/process)"
        )
