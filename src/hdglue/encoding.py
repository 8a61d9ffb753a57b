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

# Encoding works on groups of flip slices and chunks of rows sized so the
# widened operand, the gate and the counts each stay near _CHUNK_ENTRIES float32s.
from ._kernels import _CHUNK_ENTRIES, pack_bits, unpack_bits
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
# Vote counts are summed in float32, which holds every integer up to 2**24.
MAX_LENGTH = 1 << 24


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

        bits = low.bits()
        n_w = num_words(dim)
        self.words = np.empty((num_levels, n_w), dtype=np.uint64)
        self.words[0] = low.words
        start = 0
        for i, size in enumerate(sizes):
            sl = diff[start : start + size]
            bits[sl] ^= 1
            start += size
            self.words[i + 1] = pack_bits(bits, n_w)
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
    # Half-up rounding: floor(x + 0.5), not round-half-even.
    pos = (np.tanh(values) + 1.0) / 2.0 * (num_levels - 1)
    idx = np.floor(pos + 0.5).astype(np.int64)
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
        self.words = np.empty((length, num_words(dim)), dtype=np.uint64)
        for i in range(length):
            self.words[i] = random_hv(replace(ctx, index=i), dim).words
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

    def _encode_words(self, rows: np.ndarray) -> np.ndarray:
        """Read-only (n, words) majority words for a 2-d float64 batch,
        once its width and every value are checked."""
        if rows.shape[1] != self.config.length:
            raise DimensionMismatchError(
                f"encoder expects {self.config.length} components, got {rows.shape[1]}"
            )
        bad = np.argwhere(~np.isfinite(rows))
        if bad.size:
            raise InvalidValueError(
                f"non-finite value at row {bad[0, 0]}, component {bad[0, 1]}"
            )
        words = self._majority(_quantize_array(rows, self.config.num_levels))
        words.setflags(write=False)
        return words

    def encode(self, values) -> Hypervector:
        """Bitwise majority over per-component level-position bindings."""
        arr = np.asarray(values, dtype=np.float64)
        if arr.ndim != 1:
            raise InvalidValueError(f"expected a flat value vector, got shape {arr.shape}")
        return Hypervector(self.config.dim, self._encode_words(arr[None, :])[0])

    def encode_batch(self, rows: np.ndarray) -> np.ndarray:
        """Read-only (n, words) uint64 matrix whose row k is ``encode(rows[k]).words``."""
        rows = np.asarray(rows, dtype=np.float64)
        if rows.ndim != 2:
            raise InvalidValueError(f"expected a 2-d batch, got shape {rows.shape}")
        return self._encode_words(rows)


class _BoundMajority:
    """Majority over ``levels[q[l]] ^ positions[l]`` for many rows at once.

    Level q is ``low`` with flip slices 0..q-1 flipped. With
    ``a[l] = low ^ positions[l]``, a bit d in flip slice s(d) therefore
    collects the vote count

        count[d] = c0[d] + sum_l [q[l] > s(d)] * (1 - 2 * a[l, d])

    where ``c0 = sum_l a[l]``, and a bit outside every slice has the
    constant count c0[d]. The flipped bits of ``a`` are stored bit-packed
    per slice, each slice padded to one common width, so the sum over l for
    a group of slices and a chunk of rows is one stacked float32 matmul
    (slices, rows, length) @ (slices, length, width). The bit is set when
    ``2 * count + tiebreak > length``: a strict majority, or an exact tie
    that the tiebreak bit settles.
    """

    def __init__(self, levels: LevelTable, positions: PositionBasis, tiebreak: Hypervector):
        dim, length = levels.dim, positions.length
        sizes = levels.flip_schedule
        self.order = levels.flip_order
        # Slices are near-equal with the larger ones first; every slice is
        # padded to a whole number of bytes so the operand unpacks flat.
        self.n_slices, self.wide = sizes.shape[0], int(sizes[0])
        self.n_wide = int((sizes == self.wide).sum())
        self.width = -(-self.wide // 8) * 8
        self.levels_above = np.arange(self.n_slices).reshape(self.n_slices, 1, 1)

        low = levels.levels[0].bits()
        c0 = np.zeros(dim, dtype=np.int64)
        self.packed = np.empty((self.n_slices, length, self.width // 8), dtype=np.uint8)
        step = max(1, _CHUNK_ENTRIES // dim)
        for lo in range(0, length, step):
            words = positions.words[lo : lo + step]
            a = unpack_bits(words, dim)
            a ^= low
            c0 += a.sum(axis=0, dtype=np.int64)
            by_slice = self._by_slice(a[:, self.order]).transpose(1, 0, 2)
            self.packed[:, lo : lo + step] = np.packbits(by_slice, axis=2)

        tb = tiebreak.bits().astype(np.int64)
        # With swing = sum_l [q[l] > s] * (1 - 2 a[l]), a flipped bit is set
        # iff the integer swing exceeds floor((length - tb - 2 c0) / 2).
        threshold = (length - tb[self.order] - 2 * c0[self.order]) // 2
        self.threshold = self._by_slice(threshold.astype(np.float32))
        # Every output bit outside the slices, word padding included, is constant.
        self.base_bits = np.zeros(num_words(dim) * 64, dtype=np.uint8)
        self.base_bits[:dim] = 2 * c0 + tb > length

    def _by_slice(self, x: np.ndarray) -> np.ndarray:
        """(rows, flipped) values in flip order as (rows, slices, width), padding zeroed."""
        out = np.zeros(x.shape[:-1] + (self.n_slices, self.width), dtype=x.dtype)
        split = self.n_wide * self.wide
        wide = out[..., : self.n_wide, : self.wide]
        wide[...] = x[..., :split].reshape(wide.shape)
        narrow = out[..., self.n_wide :, : self.wide - 1]
        narrow[...] = x[..., split:].reshape(narrow.shape)
        return out

    def __call__(self, q: np.ndarray) -> np.ndarray:
        """(n, words) uint64 majority words for an (n, length) level matrix."""
        n, length = q.shape
        n_words = self.base_bits.shape[0] // 64
        out = np.empty((n, n_words), dtype=np.uint64)
        n_groups = -(-self.n_slices * length * self.width // _CHUNK_ENTRIES)
        group = -(-self.n_slices // n_groups)
        step = max(1, _CHUNK_ENTRIES // (group * (length + self.width)))
        split = self.n_wide * self.wide
        for lo in range(0, n, step):
            chunk = q[lo : lo + step]
            rows = chunk.shape[0]
            slots = np.empty((rows, self.n_slices, self.width), dtype=bool)
            for s in range(0, self.n_slices, group):
                packed = self.packed[s : s + group]
                a = np.unpackbits(packed.reshape(-1)).reshape(packed.shape[:2] + (self.width,))
                gate = (chunk > self.levels_above[s : s + group]).astype(np.float32)
                swing = np.matmul(gate, a.astype(np.float32))
                swing *= -2.0
                swing += gate.sum(axis=2, keepdims=True)
                np.greater(
                    swing.transpose(1, 0, 2), self.threshold[s : s + group], out=slots[:, s : s + group]
                )
            bits = np.empty((rows, self.base_bits.shape[0]), dtype=np.uint8)
            bits[:] = self.base_bits
            bits[:, self.order[:split]] = slots[:, : self.n_wide, : self.wide].reshape(rows, -1)
            bits[:, self.order[split:]] = slots[:, self.n_wide :, : self.wide - 1].reshape(rows, -1)
            out[lo : lo + rows] = pack_bits(bits, n_words)
        return out

