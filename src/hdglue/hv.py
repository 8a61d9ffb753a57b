"""Packed binary hypervectors and their algebra.

A hypervector is a fixed-width bit vector (thousands of bits) packed into
little-endian 64-bit words: bit i lives at ``words[i // 64] >> (i % 64)``.
Storage bits past ``dim`` are kept at zero so whole-word XOR and popcount
need no masking.

Vectors are value objects. Every operation returns a new instance; the
word buffers are marked read-only.

Randomness is deterministic and addressable. A :class:`SeedContext` names
one vector as ``(master_seed, namespace, index)`` and the bits are produced
counter-mode from a keyed hash, so any vector can be regenerated on demand
on any platform, in any order, without storing it.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass

import numpy as np

from ._kernels import pack_bits, unpack_bits
from .errors import (
    DimensionMismatchError,
    InvalidDimensionError,
    InvalidValueError,
)

__all__ = [
    "DEFAULT_DIM",
    "MAX_DIM",
    "MIN_DIM",
    "Hypervector",
    "Permutation",
    "SeedContext",
    "hamming",
    "random_hv",
    "similarity",
]

MIN_DIM = 64
MAX_DIM = 1 << 20
DEFAULT_DIM = 10_000

_U64_MASK = 0xFFFFFFFFFFFFFFFF
_BLOCK_BYTES = 64  # one blake2b digest


def check_dim(dim: int) -> int:
    if not isinstance(dim, (int, np.integer)):
        raise InvalidDimensionError(f"dimension must be an integer, got {type(dim).__name__}")
    dim = int(dim)
    if dim < MIN_DIM or dim > MAX_DIM:
        raise InvalidDimensionError(f"dimension {dim} outside [{MIN_DIM}, {MAX_DIM}]")
    return dim


def check_int(name: str, value) -> int:
    """``value`` as an int; a bool or a non-integer raises InvalidValueError."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InvalidValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def num_words(dim: int) -> int:
    return (dim + 63) // 64


def check_words(words, dim: int) -> np.ndarray:
    """``words`` as an (n, words) uint64 matrix of rows of ``dim`` bits, as
    ``SignalEncoder.encode_batch`` returns; any other shape, or a bit set past
    ``dim``, raises DimensionMismatchError."""
    words = np.asarray(words)
    if words.dtype != np.uint64 or words.ndim != 2 or words.shape[1] != num_words(dim):
        raise DimensionMismatchError(
            f"expected an (n, {num_words(dim)}) uint64 word matrix for dim {dim}, "
            f"got {words.dtype} of shape {words.shape}"
        )
    past_dim = np.flatnonzero(words[:, -1] & ~tail_mask(dim))
    if past_dim.size:
        raise DimensionMismatchError(f"row {past_dim[0]}: bits set past dim {dim}")
    return words


def tail_mask(dim: int) -> np.uint64:
    """Mask keeping only the valid bits of the last word."""
    rem = dim % 64
    if rem == 0:
        return np.uint64(_U64_MASK)
    return np.uint64((1 << rem) - 1)


@dataclass(frozen=True)
class SeedContext:
    """Address of one deterministic random vector.

    The same (master_seed, namespace, index) triple always yields the same
    bits. Namespaces keep the families of symbols (class IDs, positions,
    level endpoints, ...) from colliding under a shared master seed.
    """

    master_seed: int
    namespace: str
    index: int = 0


def _keyed_state(ctx: SeedContext):
    """BLAKE2b-512 state that has absorbed ``ctx``'s prefix, copied for each block."""
    name = ctx.namespace.encode("utf-8")
    # Length-prefixed namespace so ("ab", 1) can never alias ("a", ...) blocks.
    prefix = (
        struct.pack("<Q", ctx.master_seed & _U64_MASK)
        + struct.pack("<H", len(name))
        + name
        + struct.pack("<Q", ctx.index & _U64_MASK)
    )
    return hashlib.blake2b(prefix, digest_size=_BLOCK_BYTES)


def _hash_block(state, block: int) -> bytes:
    """Block ``block`` of a stream, ``blake2b(prefix + u64le(block))``, from
    its prefix ``state``."""
    h = state.copy()
    h.update(struct.pack("<Q", block))
    return h.digest()


def keyed_bytes(ctx: SeedContext, nbytes: int) -> bytes:
    """First ``nbytes`` of the counter-mode stream addressed by ``ctx``."""
    state = _keyed_state(ctx)
    blocks = (nbytes + _BLOCK_BYTES - 1) // _BLOCK_BYTES
    return b"".join([_hash_block(state, b) for b in range(blocks)])[:nbytes]


def random_words(ctx: SeedContext, dim: int, count: int) -> np.ndarray:
    """(count, words) uint64 matrix whose row i is ``random_hv`` at index
    ``ctx.index + i``: the rows' streams joined and read in one go."""
    n_w = num_words(dim)
    seed, name = ctx.master_seed, ctx.namespace
    raw = b"".join([keyed_bytes(SeedContext(seed, name, ctx.index + i), 8 * n_w)
                    for i in range(count)])
    words = np.frombuffer(raw, dtype="<u8").astype(np.uint64).reshape(count, n_w)
    words[:, -1] &= tail_mask(dim)
    return words


class HashStream:
    """Buffered reader over the counter-mode stream of a seed context."""

    __slots__ = ("_state", "_block", "_buf", "_pos")

    def __init__(self, ctx: SeedContext):
        self._state = _keyed_state(ctx)
        self._block = 0
        self._buf = b""
        self._pos = 0

    def next_u64(self) -> int:
        if self._pos >= len(self._buf):
            self._buf = _hash_block(self._state, self._block)
            self._block += 1
            self._pos = 0
        v = struct.unpack_from("<Q", self._buf, self._pos)[0]
        self._pos += 8
        return v

    def below(self, bound: int) -> int:
        """Uniform integer in [0, bound) by rejection, bias-free."""
        if bound <= 0:
            raise InvalidValueError("bound must be positive")
        limit = (1 << 64) - ((1 << 64) % bound)
        while True:
            v = self.next_u64()
            if v < limit:
                return v % bound


class Hypervector:
    """Immutable packed bit vector.

    Construct through :func:`random_hv`, :meth:`zero`, :meth:`from_bits`,
    or :meth:`from_words`, the checked way in from a row of packed words
    such as one of ``encode_batch``; the constructor trusts its words and
    is meant for internal use. ``words`` is a read-only uint64 array with
    every bit past ``dim`` zero.
    """

    __slots__ = ("dim", "words")

    def __init__(self, dim: int, words: np.ndarray):
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "words", words)

    def __setattr__(self, name, value):
        raise AttributeError("Hypervector is immutable")

    @staticmethod
    def _wrap(dim: int, words: np.ndarray) -> "Hypervector":
        words = np.ascontiguousarray(words, dtype=np.uint64)
        words.setflags(write=False)
        return Hypervector(dim, words)

    @classmethod
    def zero(cls, dim: int) -> "Hypervector":
        dim = check_dim(dim)
        return cls._wrap(dim, np.zeros(num_words(dim), dtype=np.uint64))

    @classmethod
    def from_bits(cls, bits) -> "Hypervector":
        bits = np.asarray(bits)
        if bits.ndim != 1:
            raise InvalidValueError("bits must be one-dimensional")
        dim = check_dim(bits.shape[0])
        if not np.isin(bits, (0, 1)).all():
            raise InvalidValueError("bits must be 0 or 1")
        return cls._wrap(dim, pack_bits(bits, num_words(dim)))

    @classmethod
    def from_words(cls, dim: int, words: np.ndarray) -> "Hypervector":
        dim = check_dim(dim)
        words = np.asarray(words, dtype=np.uint64)
        if words.shape != (num_words(dim),):
            raise DimensionMismatchError(
                f"expected {num_words(dim)} words for dim {dim}, got {words.shape}"
            )
        if int(words[-1] & ~tail_mask(dim)) != 0:
            raise InvalidValueError("nonzero bits past the declared dimension")
        return cls._wrap(dim, words.copy())

    # -- algebra ---------------------------------------------------------

    def __xor__(self, other: "Hypervector") -> "Hypervector":
        if not isinstance(other, Hypervector):
            return NotImplemented
        if self.dim != other.dim:
            raise DimensionMismatchError(f"dim {self.dim} vs {other.dim}")
        return Hypervector._wrap(self.dim, self.words ^ other.words)

    def popcount(self) -> int:
        return int(np.bitwise_count(self.words).sum())

    def bits(self) -> np.ndarray:
        """Unpacked uint8 array of length ``dim`` (a copy)."""
        return unpack_bits(self.words, self.dim)

    # -- value semantics -------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Hypervector):
            return NotImplemented
        return self.dim == other.dim and bool(np.array_equal(self.words, other.words))

    def __hash__(self) -> int:
        return hash((self.dim, self.words.tobytes()))

    def __repr__(self) -> str:
        return f"Hypervector(dim={self.dim}, ones={self.popcount()})"


def random_hv(ctx: SeedContext, dim: int) -> Hypervector:
    """The uniformly random vector addressed by ``ctx`` at width ``dim``."""
    dim = check_dim(dim)
    raw = keyed_bytes(ctx, num_words(dim) * 8)
    words = np.frombuffer(raw, dtype="<u8").astype(np.uint64)
    words[-1] &= tail_mask(dim)
    return Hypervector._wrap(dim, words)


def hamming(a: Hypervector, b: Hypervector) -> int:
    if a.dim != b.dim:
        raise DimensionMismatchError(f"dim {a.dim} vs {b.dim}")
    return int(np.bitwise_count(a.words ^ b.words).sum())


def similarity(a: Hypervector, b: Hypervector) -> float:
    """1 - hamming/dim: 1.0 identical, ~0.5 unrelated, 0.0 complement."""
    return 1.0 - hamming(a, b) / a.dim


def random_table(ctx: SeedContext, n: int) -> np.ndarray:
    """Seeded uniform permutation of range(n) (Fisher-Yates, rejection draws)."""
    if n < 1:
        raise InvalidValueError("permutation length must be at least 1")
    # Swap i takes the next draw of the stream below i + 1; read them all at
    # once and keep the fast path only if HashStream.below would reject none.
    bounds = np.arange(n, 1, -1, dtype=np.uint64)
    draws = np.frombuffer(keyed_bytes(ctx, 8 * (n - 1)), dtype="<u8")
    # below() rejects v >= 2**64 - (2**64 % bound)
    slack = (np.uint64(_U64_MASK) % bounds + np.uint64(1)) % bounds
    if not (draws <= np.uint64(_U64_MASK) - slack).all():
        return _random_table_sequential(ctx, n)
    table = list(range(n))
    for i, j in zip(range(n - 1, 0, -1), (draws % bounds).tolist()):
        table[i], table[j] = table[j], table[i]
    return np.asarray(table, dtype=np.int64)


def _random_table_sequential(ctx: SeedContext, n: int) -> np.ndarray:
    stream = HashStream(ctx)
    table = np.arange(n, dtype=np.int64)
    for i in range(n - 1, 0, -1):
        j = stream.below(i + 1)
        table[i], table[j] = table[j], table[i]
    return table


class Permutation:
    """Fixed full-width bit permutation drawn from a seed context.

    ``apply(v, k)`` routes input bit ``table[i]`` to output bit ``i``, k
    times; negative powers invert. Power tables are composed by repeated
    squaring, which matches repeated application bit for bit; squarings
    are kept for good, direct powers in a small bounded cache.
    """

    _CACHE_CAP = 256

    def __init__(self, ctx: SeedContext, dim: int):
        self.dim = check_dim(dim)
        base = random_table(ctx, self.dim)
        inverse = np.argsort(base)
        self._tables = {0: np.arange(self.dim, dtype=np.int64), 1: base, -1: inverse}
        self._squares: dict[tuple[int, int], np.ndarray] = {}

    def _pow2(self, sign: int, k: int) -> np.ndarray:
        key = (sign, k)
        table = self._squares.get(key)
        if table is None:
            if k == 0:
                table = self._tables[sign]
            else:
                half = self._pow2(sign, k - 1)
                table = half[half]
            self._squares[key] = table
        return table

    def _table(self, power: int) -> np.ndarray:
        table = self._tables.get(power)
        if table is not None:
            return table
        sign = 1 if power > 0 else -1
        result = None
        n, k = abs(power), 0
        while n:
            if n & 1:
                square = self._pow2(sign, k)
                # powers of one base commute, so composition order is free
                result = square if result is None else result[square]
            n >>= 1
            k += 1
        if len(self._tables) >= self._CACHE_CAP:
            self._tables = {p: self._tables[p] for p in (0, 1, -1)}
        self._tables[power] = result
        return result

    def apply(self, v: Hypervector, power: int = 1) -> Hypervector:
        if v.dim != self.dim:
            raise DimensionMismatchError(f"dim {v.dim} vs permutation dim {self.dim}")
        if power == 0:
            return v
        bits = v.bits()[self._table(power)]
        return Hypervector._wrap(self.dim, pack_bits(bits, num_words(self.dim)))
