"""Turning real-valued signal vectors into single hypervectors.

The pipeline: squash each component through tanh, bin the result into one
of ``num_levels`` quantization levels, look up that level's hypervector,
bind it to the component's position vector by XOR, and take the bitwise
majority over all components.

Level vectors form a gradient between two independent random endpoints:
walking from level 0 to the last level flips disjoint slices of their
disagreeing bits, so hamming distance grows exactly linearly (up to slice
rounding) and never backtracks. Nearby signal values therefore land on
nearby hypervectors, distant values on unrelated ones.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from ._kernels import pack_bits, unpack_bits
from .errors import (
    DimensionMismatchError,
    InvalidValueError,
    TooManyLevelsError,
)
from .hv import (
    DEFAULT_DIM,
    Hypervector,
    SeedContext,
    check_dim,
    check_int,
    num_words,
    random_hv,
    random_table,
    random_words,
)

__all__ = [
    "MAX_LENGTH",
    "MAX_LEVELS",
    "MIN_LEVELS",
    "EncoderConfig",
    "LevelTable",
    "PositionBasis",
    "SignalEncoder",
]

MIN_LEVELS = 2
MAX_LEVELS = 1025
# Encode keeps its vote counts in integers no wider than int32, which hold
# every count, doubled, up to 2 * MAX_LENGTH with room to spare.
MAX_LENGTH = 1 << 24
# Encoding builds its operand, and encodes a batch, in chunks whose
# temporaries stay near this many bytes.
_CHUNK_BYTES = 1 << 20


@dataclass(frozen=True)
class EncoderConfig:
    """Shape and seeding of one encoder.

    length: number of signal components each input must carry.
    dim: hypervector width in bits.
    num_levels: quantization bins across the tanh range.
    seed: master seed all of the encoder's random material derives from.
    """

    length: int
    dim: int = DEFAULT_DIM
    num_levels: int = 65
    seed: int = 0

    def __post_init__(self):
        # Plain ints, so a model built from numpy integers still saves as JSON.
        for name in ("length", "num_levels", "seed"):
            object.__setattr__(self, name, check_int(name, getattr(self, name)))
        if self.length < 1:
            raise InvalidValueError(f"length must be positive, got {self.length}")
        if self.length > MAX_LENGTH:
            raise InvalidValueError(f"length {self.length} above cap {MAX_LENGTH}")
        object.__setattr__(self, "dim", check_dim(self.dim))
        if not MIN_LEVELS <= self.num_levels <= MAX_LEVELS:
            raise InvalidValueError(
                f"num_levels {self.num_levels} outside [{MIN_LEVELS}, {MAX_LEVELS}]"
            )


class LevelTable:
    """Hypervectors for quantization levels along one endpoint pair.

    Endpoints come from ``ctx`` at indices 0 and 1. Their disagreeing bit
    positions are shuffled by a seeded permutation and cut into
    ``num_levels - 1`` near-equal contiguous slices (larger slices first);
    level i+1 is level i with slice i flipped.

    ``flip_order`` lists the shuffled disagreeing positions in flip order
    and ``flip_schedule`` the slice sizes: slice i is the next
    ``flip_schedule[i]`` positions of ``flip_order``.
    """

    def __init__(self, dim: int, num_levels: int, ctx: SeedContext):
        dim = check_dim(dim)
        if num_levels < MIN_LEVELS:
            raise InvalidValueError(f"need at least {MIN_LEVELS} levels, got {num_levels}")
        if num_levels > MAX_LEVELS:
            raise InvalidValueError(f"num_levels {num_levels} above cap {MAX_LEVELS}")
        self.dim = dim
        self.num_levels = num_levels

        low = random_hv(replace(ctx, index=0), dim)
        high = random_hv(replace(ctx, index=1), dim)
        diff = np.nonzero((low ^ high).bits())[0]
        steps = num_levels - 1
        if steps > diff.shape[0]:
            raise TooManyLevelsError(
                f"{num_levels} levels need {steps} disagreeing bits, endpoints share "
                f"all but {diff.shape[0]}"
            )
        order = random_table(SeedContext(ctx.master_seed, "level-order", ctx.index), diff.shape[0])
        diff = diff[order]

        base, rem = divmod(diff.shape[0], steps)
        sizes = [base + 1] * rem + [base] * (steps - rem)
        self.flip_schedule = np.asarray(sizes, dtype=np.int64)
        self.flip_order = diff
        self.flip_schedule.setflags(write=False)
        self.flip_order.setflags(write=False)

        # Level i + 1 differs from level i in slice i: scatter each slice into
        # its own row, then XOR the packed rows down the levels onto ``low``.
        flips = np.zeros((num_levels, num_words(dim) * 64), dtype=np.uint8)
        flips[np.repeat(np.arange(1, num_levels), self.flip_schedule), diff] = 1
        self.words = np.bitwise_xor.accumulate(pack_bits(flips, num_words(dim)), axis=0)
        self.words ^= low.words
        self.words.setflags(write=False)
        self.levels = [Hypervector(dim, self.words[i]) for i in range(num_levels)]

    def distance(self, i: int, j: int) -> int:
        """Exact hamming distance between levels i and j from the schedule."""
        lo, hi = sorted((i, j))
        if lo < 0 or hi >= self.num_levels:
            raise InvalidValueError(f"level index outside [0, {self.num_levels - 1}]")
        return int(self.flip_schedule[lo:hi].sum())

    def quantize(self, x: float) -> int:
        """Level index for one raw signal value (tanh then uniform bins)."""
        if not math.isfinite(x):
            raise InvalidValueError(f"cannot quantize non-finite value {x!r}")
        return int(_quantize_array(np.asarray([x], dtype=np.float64), self.num_levels)[0])


def _quantize_array(values: np.ndarray, num_levels: int) -> np.ndarray:
    """int16 level indices; MAX_LEVELS fits."""
    # Half-up rounding: floor(x + 0.5), not round-half-even.
    pos = (np.tanh(values) + 1.0) / 2.0 * (num_levels - 1)
    idx = np.floor(pos + 0.5).astype(np.int16)
    return np.clip(idx, 0, num_levels - 1)


class PositionBasis:
    """One random role vector per signal component, drawn from ``ctx``: row i
    of the read-only (length, words) matrix ``words``."""

    def __init__(self, dim: int, length: int, ctx: SeedContext):
        dim = check_dim(dim)
        if length < 1:
            raise InvalidValueError("position basis needs at least one slot")
        self.dim = dim
        self.length = length
        self.words = random_words(replace(ctx, index=0), dim, length)
        self.words.setflags(write=False)


class SignalEncoder:
    """Deterministic map from a real vector to one hypervector.

    All random material (levels, positions, tiebreak) is
    derived from ``config.seed`` under fixed namespaces, so two encoders
    with equal configs encode identically with nothing shared or stored.
    """

    def __init__(self, config: EncoderConfig):
        self.config = config
        seed = config.seed
        self.levels = LevelTable(
            config.dim, config.num_levels, SeedContext(seed, "level-endpoint", 0)
        )
        self.positions = PositionBasis(config.dim, config.length, SeedContext(seed, "position", 0))
        self.tiebreak = random_hv(SeedContext(seed, "tiebreak", 0), config.dim)

    @property
    def dim(self) -> int:
        return self.config.dim

    @functools.cached_property
    def _majority(self) -> _BoundMajority:
        return _BoundMajority(self.levels, self.positions, self.tiebreak)

    def _quantized(self, rows) -> np.ndarray:
        """(n, length) int16 quantization levels of a row batch, once its
        shape, its width and every value are checked: the one check of a row
        matrix. An empty list is a batch of no rows."""
        rows = np.asarray(rows, dtype=np.float64)
        if rows.shape == (0,):
            rows = rows.reshape(0, self.config.length)
        if rows.ndim != 2:
            raise InvalidValueError(f"expected a 2-d batch, got shape {rows.shape}")
        if rows.shape[1] != self.config.length:
            raise DimensionMismatchError(
                f"encoder expects {self.config.length} components, got {rows.shape[1]}"
            )
        bad = np.argwhere(~np.isfinite(rows))
        if bad.size:
            raise InvalidValueError(
                f"non-finite value at row {bad[0, 0]}, component {bad[0, 1]}"
            )
        return _quantize_array(rows, self.config.num_levels)

    def encode(self, values) -> Hypervector:
        """Bitwise majority over per-component level-position bindings."""
        arr = np.asarray(values, dtype=np.float64)
        if arr.ndim != 1:
            raise InvalidValueError(f"expected a flat value vector, got shape {arr.shape}")
        words = self._majority(self._quantized(arr[None, :]))
        return Hypervector._wrap(self.config.dim, words[0])

    def encode_batch(self, rows: np.ndarray) -> np.ndarray:
        """Read-only (n, words) uint64 matrix whose row k is ``encode(rows[k]).words``;
        an empty list is a batch of no rows."""
        words = self._majority(self._quantized(rows))
        words.setflags(write=False)
        return words


class _BoundMajority:
    """Majority over ``levels[q[l]] ^ positions[l]`` for many rows at once.

    Level q is ``low`` with flip slices 0..q-1 flipped. With
    ``a[l] = low ^ positions[l]``, a bit d in flip slice s(d) therefore
    collects the vote count

        count[d] = c0[d] + sum_l [q[l] > s(d)] * (1 - 2 * a[l, d])

    where ``c0 = sum_l a[l]``, and a bit outside every slice has the
    constant count c0[d]. Each flipped bit keeps its column ``a[:, d]``
    packed along the component axis, grouped by slice and padded to the
    widest slice. A row's gate ``q > s`` packs the same way, so the sum
    over l is ``popcount(gate) - 2 * popcount(gate & a[:, d])``: AND and
    popcount, exact in integers. The bit is set when
    ``2 * count + tiebreak > length``: a strict majority, or an exact tie
    that the tiebreak bit settles.

    Each chunk of rows gives its flipped bits as (slices * width) slots in
    flip order, and two readers take them from there. Calling the object
    gathers the slots back to output order and packs them into words.
    :meth:`counts` never does: a tally needs only how many rows set each
    bit, which does not depend on bit order, so it sums the slots along the
    rows and moves each flipped bit's sum to its position once.
    """

    def __init__(self, levels: LevelTable, positions: PositionBasis, tiebreak: Hypervector):
        dim, length = levels.dim, positions.length
        sizes = levels.flip_schedule
        order = levels.flip_order
        # counts() reads each flipped bit's slot by its position.
        self.dim, self.order = dim, order
        # Slices are near-equal with the larger ones first.
        self.n_slices, self.wide = sizes.shape[0], int(sizes[0])
        self.n_wide = int((sizes == self.wide).sum())
        self.levels_above = np.arange(self.n_slices, dtype=np.int16)[:, None]
        # A column fills words of the narrowest unsigned type that holds the
        # whole signal, or uint64 words past 64 components.
        word_bits = 8
        while word_bits < min(length, 64):
            word_bits *= 2
        self.word = np.dtype(f"uint{word_bits}")
        self.gate_bits = -(-length // word_bits) * word_bits
        # Doubled counts reach 2 * length; adding a threshold keeps them in
        # [-length, 2 * length].
        self.count_type = next(
            t for t in (np.int8, np.int16, np.int32) if np.iinfo(t).max >= 2 * length
        )

        low = levels.levels[0].bits()
        columns = np.zeros((dim, self.gate_bits // 8), dtype=np.uint8)
        step = word_bits * max(1, _CHUNK_BYTES // (2 * word_bits * dim))
        for lo in range(0, length, step):
            a = unpack_bits(positions.words[lo : lo + step], dim)
            a ^= low
            packed = np.packbits(np.ascontiguousarray(a.T), axis=1, bitorder="little")
            columns[:, lo // 8 : lo // 8 + packed.shape[1]] = packed
        columns = columns.view(self.word)
        c0 = np.bitwise_count(columns).sum(axis=1, dtype=np.int64)
        # (words, slices, width): each word of every slice's columns.
        self.packed = self._by_slice(columns[order].T)

        tb = tiebreak.bits().astype(np.int64)
        # With swing = popcount(gate) - 2 * popcount(gate & a), a flipped bit
        # is set iff the integer swing exceeds floor((length - tb - 2 c0) / 2).
        threshold = (length - tb[order] - 2 * c0[order]) // 2
        self.threshold = self._by_slice(threshold.astype(self.count_type))
        # Output bit d reads slot gather[d] of a row's (slices * width) slots;
        # every bit outside the slices, word padding included, is constant.
        n_bits = num_words(dim) * 64
        self.gather = np.zeros(n_bits, dtype=np.intp)
        self.gather[order] = np.flatnonzero(self._by_slice(np.ones(order.shape[0], dtype=bool)))
        flipped = np.zeros(n_bits, dtype=bool)
        flipped[order] = True
        base = np.zeros(n_bits, dtype=bool)
        base[:dim] = 2 * c0 + tb > length
        base &= ~flipped
        self.flip_mask = pack_bits(flipped, n_bits // 64)
        self.base_words = pack_bits(base, n_bits // 64)

    def _by_slice(self, x: np.ndarray) -> np.ndarray:
        """(rows, flipped) values in flip order as (rows, slices, width), padding zeroed."""
        out = np.zeros(x.shape[:-1] + (self.n_slices, self.wide), dtype=x.dtype)
        split = self.n_wide * self.wide
        wide = out[..., : self.n_wide, :]
        wide[...] = x[..., :split].reshape(wide.shape)
        narrow = out[..., self.n_wide :, : self.wide - 1]
        narrow[...] = x[..., split:].reshape(narrow.shape)
        return out

    def _slot_chunks(self, q: np.ndarray, max_rows: int):
        """(first row, (rows, slices * width) bool slots) for each chunk of at
        most ``max_rows`` rows of an (n, length) int16 level matrix.

        Slot ``gather[d]`` of a row is its output bit d for every flipped bit
        d; padding slots hold no bit and may read 1.
        """
        n, length = q.shape
        n_slots = self.n_slices * self.wide
        row_bytes = (
            self.n_slices * self.gate_bits  # gate
            + self.packed.size * (self.word.itemsize + 1)  # AND words, their popcounts
            + n_slots * (np.dtype(self.count_type).itemsize + 1)  # counts, slots
            + self.gather.shape[0]  # output bits
        )
        step = max(1, min(max_rows, _CHUNK_BYTES // row_bytes))
        # Gate bits past the signal's length stay clear.
        gate = np.zeros((min(n, step), self.n_slices, self.gate_bits), dtype=bool)
        for lo in range(0, n, step):
            chunk = q[lo : lo + step]
            rows = chunk.shape[0]
            np.greater(chunk[:, None, :], self.levels_above, out=gate[:rows, :, :length])
            g = np.packbits(gate[:rows], axis=-1, bitorder="little").view(self.word)
            g = np.ascontiguousarray(g.transpose(0, 2, 1))  # (rows, words, slices)
            count = np.bitwise_count(g[..., None] & self.packed).sum(axis=1, dtype=self.count_type)
            count += count
            count += self.threshold
            on = np.bitwise_count(g).sum(axis=1, dtype=self.count_type)
            yield lo, np.less(count, on[..., None]).reshape(rows, n_slots)

    def __call__(self, q: np.ndarray) -> np.ndarray:
        """(n, words) uint64 majority words for an (n, length) int16 level matrix."""
        out = np.empty((q.shape[0], self.flip_mask.shape[0]), dtype=np.uint64)
        for lo, slots in self._slot_chunks(q, q.shape[0]):
            bits = np.packbits(slots.take(self.gather, axis=1), axis=-1, bitorder="little")
            out[lo : lo + slots.shape[0]] = bits.view(np.uint64) & self.flip_mask | self.base_words
        return out

    def counts(self, q: np.ndarray) -> np.ndarray:
        """(dim,) int64: how many rows of an (n, length) int16 level matrix
        set each bit of their majority words, as ``column_counts`` of
        ``self(q)`` gives, with no row gathered or packed."""
        slot_counts = np.zeros(self.n_slices * self.wide, dtype=np.int64)
        # A uint8 sum over at most 255 rows is exact, and far cheaper than a
        # wider one.
        for _, slots in self._slot_chunks(q, 255):
            slot_counts += np.add.reduce(slots, axis=0, dtype=np.uint8)
        out = unpack_bits(self.base_words, self.dim).astype(np.int64)
        out *= q.shape[0]
        out[self.order] = slot_counts[self.gather[self.order]]
        return out
