"""Exact weighted majority bundling of hypervectors.

An accumulator keeps one signed tally per bit position: adding a vector
with weight w moves each tally by +w where the bit is 1 and -w where it
is 0. Weights are fixed-point integers in millionths, so accumulation is
exact integer arithmetic: any order of adds, subtracts, and merges over
the same multiset lands on identical counters, and removing a term
restores the prior state bit for bit. A change that would bring a tally's
total weight to 2**62 millionths is refused before anything moves, so no
int64 counter can wrap.

A batch of n terms of equal weight w lands in one step. A bit set in k of
the n rows moves its tally by w*k - w*(n - k) = w*(2k - n), which is the
sum of the n single moves. So a batch needs only each bit's k: a column
sum over packed rows, or counts a caller already holds. The counters equal
those of n adds, in any order. A single add or subtract is a batch of one.

Finalizing takes the per-bit sign; exact zero tallies fall back to a
seeded tiebreak vector so the result is still deterministic.
"""

from __future__ import annotations

import struct
from fractions import Fraction

import numpy as np

from . import _kernels
from .errors import (
    AccumulatorUnderflowError,
    DataFormatError,
    DimensionMismatchError,
    InvalidValueError,
)
from .hv import Hypervector, SeedContext, check_dim, check_int, num_words, random_hv

__all__ = [
    "MILLION",
    "ConsensusAccumulator",
    "check_room",
    "majority",
    "to_millionths",
]

MILLION = 1_000_000
# Every total stays below this many millionths, so no counter, step or
# partial sum leaves int64.
_WEIGHT_CAP = 1 << 62


def check_room(total: int, extra: int) -> None:
    """Refuse a change by ``extra`` that would bring ``total`` to _WEIGHT_CAP millionths."""
    if total + extra >= _WEIGHT_CAP:
        raise InvalidValueError("total weight would reach the cap of 2**62 millionths")


def to_millionths(weight) -> int:
    """Positive weight (votes) as an exact integer count of millionths.

    A ``Fraction`` converts without a float in between, so a stored count
    ``m`` passes back in exactly as ``Fraction(m, MILLION)``.
    """
    if isinstance(weight, (bool, np.bool_)):
        raise InvalidValueError("weight must be numeric, not boolean")
    if isinstance(weight, (int, np.integer)):
        m = int(weight) * MILLION
    elif isinstance(weight, Fraction):
        m = round(weight * MILLION)
    elif isinstance(weight, (float, np.floating)):
        f = float(weight)
        if not np.isfinite(f):
            raise InvalidValueError("weight must be finite")
        m = round(f * MILLION)
    else:
        raise InvalidValueError(f"weight must be numeric, got {type(weight).__name__}")
    if m <= 0:
        raise InvalidValueError(f"weight must be positive, got {weight!r}")
    return m


class ConsensusAccumulator:
    """Signed per-bit vote tallies in integer millionths.

    ``tiebreak_ctx`` addresses the vector consulted wherever a tally is
    exactly zero, including the freshly constructed empty state. It is
    drawn on the first :meth:`finalize`, so a tally never read out never
    draws it.
    """

    __slots__ = ("dim", "counters", "total_weight", "term_count", "tiebreak_ctx", "_tiebreak")

    def __init__(self, dim: int, tiebreak_ctx: SeedContext):
        self.dim = check_dim(dim)
        self.counters = np.zeros(dim, dtype=np.int64)
        self.total_weight = 0
        self.term_count = 0
        self.tiebreak_ctx = tiebreak_ctx
        self._tiebreak: Hypervector | None = None

    # -- mutation --------------------------------------------------------

    def _tally(self, counts: np.ndarray, n: int, m: int, sign: int = 1) -> None:
        """Move each counter by sign * m * (set - clear) over n rows of which
        ``counts`` (int64, per bit) set each bit."""
        step = sign * m
        check_room(self.total_weight, step * n)
        # In place, with one temporary: a single add is a hot call. Moving by
        # -step * n first keeps every partial sum inside int64 below the cap.
        self.counters -= step * n
        self.counters += 2 * step * counts
        self.total_weight += step * n
        self.term_count += sign * n

    def _row_counts(self, v: Hypervector) -> np.ndarray:
        if v.dim != self.dim:
            raise DimensionMismatchError(f"dim {v.dim} vs accumulator dim {self.dim}")
        return _kernels.column_counts(v.words[None, :], self.dim)

    def add(self, v: Hypervector, weight=1) -> None:
        self._tally(self._row_counts(v), 1, to_millionths(weight))

    def add_words(self, words: np.ndarray, weight=1) -> None:
        """Add each row of a packed (n, words) matrix as one term of ``weight``.

        Same counters as n calls of :meth:`add`, from one column sum.
        """
        m = to_millionths(weight)
        words = np.ascontiguousarray(words, dtype=np.uint64)
        if words.ndim != 2 or words.shape[1] != num_words(self.dim):
            raise DimensionMismatchError(
                f"word matrix of shape {words.shape} vs accumulator dim {self.dim}"
            )
        self._tally(_kernels.column_counts(words, self.dim), words.shape[0], m)

    def add_counts(self, counts, n: int) -> None:
        """Add n terms of weight 1 known only by how many of them set each
        bit: ``counts`` is a (dim,) integer array with entries in [0, n].

        Same counters as :meth:`add_words` on any n rows with those column
        counts.
        """
        n = check_int("row count", n)
        counts = np.asarray(counts)
        if counts.shape != (self.dim,):
            raise DimensionMismatchError(
                f"bit counts of shape {counts.shape} vs accumulator dim {self.dim}"
            )
        if counts.dtype.kind not in "iu" or counts.min() < 0 or counts.max() > n:
            raise InvalidValueError(f"bit counts must be integers in [0, {n}]")
        self._tally(counts.astype(np.int64, copy=False), n, MILLION)

    def sub(self, v: Hypervector, weight=1) -> None:
        """Remove one previously added term; exact inverse of :meth:`add`."""
        m = to_millionths(weight)
        if m > self.total_weight or self.term_count == 0:
            raise AccumulatorUnderflowError(
                f"cannot remove weight {m} from total {self.total_weight}"
            )
        self._tally(self._row_counts(v), 1, m, -1)

    def merge(self, other: "ConsensusAccumulator") -> None:
        """Add ``other``'s tally to this one in place; the tiebreak stays this one's."""
        if self.dim != other.dim:
            raise DimensionMismatchError(f"dim {self.dim} vs {other.dim}")
        check_room(self.total_weight, other.total_weight)
        self.counters += other.counters
        self.total_weight += other.total_weight
        self.term_count += other.term_count

    # -- readout ---------------------------------------------------------

    def finalize(self) -> Hypervector:
        """Majority vote per bit; zero tallies copy the tiebreak bit."""
        if self._tiebreak is None:
            self._tiebreak = random_hv(self.tiebreak_ctx, self.dim)
        return Hypervector._wrap(self.dim, _kernels.sign_words(self.counters, self._tiebreak.words))

    def __eq__(self, other) -> bool:
        if not isinstance(other, ConsensusAccumulator):
            return NotImplemented
        return (
            self.dim == other.dim
            and self.total_weight == other.total_weight
            and self.term_count == other.term_count
            and self.tiebreak_ctx == other.tiebreak_ctx
            and bool(np.array_equal(self.counters, other.counters))
        )

    def __repr__(self) -> str:
        return (
            f"ConsensusAccumulator(dim={self.dim}, terms={self.term_count}, "
            f"total_weight={self.total_weight / MILLION:g})"
        )

    # -- serialization ---------------------------------------------------

    def state_bytes(self) -> bytes:
        """dim, total weight, term count, then counters, all little-endian."""
        return (
            struct.pack("<IqQ", self.dim, self.total_weight, self.term_count)
            + self.counters.astype("<i8").tobytes()
        )

    def load_state_bytes(self, data: bytes) -> None:
        """Replace the tally, in place, with one written by :meth:`state_bytes`.

        The dim must match; the tiebreak stays the accumulator's own.
        """
        if len(data) < 20:
            raise DataFormatError("accumulator blob shorter than its header")
        dim, total_weight, term_count = struct.unpack_from("<IqQ", data, 0)
        if dim != self.dim:
            raise DataFormatError(f"stored state has dim {dim}, expected {self.dim}")
        body = data[20:]
        if len(body) != dim * 8:
            raise DataFormatError(f"accumulator blob for dim {dim} has wrong payload size")
        if not 0 <= total_weight < _WEIGHT_CAP:
            raise DataFormatError(f"total weight {total_weight} outside [0, 2**62)")
        counters = np.frombuffer(body, dtype="<i8").astype(np.int64)
        if np.abs(counters).max(initial=0) > total_weight:
            raise DataFormatError("counter magnitude exceeds total weight")
        self.counters = counters
        self.total_weight = total_weight
        self.term_count = term_count


def majority(vectors, tiebreak: Hypervector) -> Hypervector:
    """Equal-weight majority of a non-empty vector list, ties from ``tiebreak``.

    Matches an accumulator fed the same list with weight 1: the same signed
    per-bit tally, from one column count, read out by the same sign kernel.
    """
    vectors = list(vectors)
    if not vectors:
        raise InvalidValueError("majority of an empty list")
    dim = vectors[0].dim
    if tiebreak.dim != dim:
        raise DimensionMismatchError(f"tiebreak dim {tiebreak.dim} vs {dim}")
    for v in vectors:
        if v.dim != dim:
            raise DimensionMismatchError(f"dim {v.dim} vs {dim}")
    tally = 2 * _kernels.column_counts(np.stack([v.words for v in vectors]), dim) - len(vectors)
    return Hypervector._wrap(dim, _kernels.sign_words(tally, tiebreak.words))
