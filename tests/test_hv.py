"""Packed hypervector values, seeded generation, XOR/permutation algebra."""

import hashlib
import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hdglue import (
    DimensionMismatchError,
    Hypervector,
    InvalidDimensionError,
    InvalidValueError,
    Permutation,
    SeedContext,
    hamming,
    random_hv,
    similarity,
)
from hdglue.hv import HashStream, keyed_bytes, num_words, random_table, tail_mask

dims = st.sampled_from([64, 100, 256, 513, 1000])
seeds = st.integers(min_value=0, max_value=2**64 - 1)


def hv_of(seed: int, dim: int = 512, index: int = 0) -> Hypervector:
    return random_hv(SeedContext(seed, "test-vector", index), dim)


def ones(dim: int) -> Hypervector:
    return Hypervector.from_bits(np.ones(dim, dtype=np.uint8))


# -- seeded generation -------------------------------------------------------


def test_same_context_same_vector():
    ctx = SeedContext(42, "class", 7)
    assert random_hv(ctx, 10_000) == random_hv(ctx, 10_000)


def test_context_fields_all_matter():
    base = random_hv(SeedContext(1, "class", 0), 256)
    assert base != random_hv(SeedContext(2, "class", 0), 256)
    assert base != random_hv(SeedContext(1, "level", 0), 256)
    assert base != random_hv(SeedContext(1, "class", 1), 256)


def test_generation_is_order_free():
    later = random_hv(SeedContext(9, "position", 50), 512)
    earlier = random_hv(SeedContext(9, "position", 2), 512)
    assert later == random_hv(SeedContext(9, "position", 50), 512)
    assert earlier == random_hv(SeedContext(9, "position", 2), 512)


@given(seeds, st.integers(min_value=0, max_value=2**63))
def test_keyed_bytes_deterministic(seed, index):
    ctx = SeedContext(seed, "t", index)
    assert keyed_bytes(ctx, 100) == keyed_bytes(ctx, 100)
    # a longer read extends the shorter one
    assert keyed_bytes(ctx, 200)[:100] == keyed_bytes(ctx, 100)


# The stream as first defined: block b of context (seed, namespace, index)
# is blake2b(u64 seed, u16 len(name), name, u64 index, u64 b), 64 bytes each.
STREAM_CONTEXTS = [
    SeedContext(seed, name, index)
    for seed in (0, 7, 2**63, 2**64 - 1)
    for name in ("", "position", "ns-" + "x" * 297)
    for index in (0, 5, 2**63 + 1)
]


def one_shot_stream(ctx, nbytes):
    name = ctx.namespace.encode("utf-8")
    prefix = struct.pack("<QH", ctx.master_seed, len(name)) + name + struct.pack("<Q", ctx.index)
    blocks = (
        hashlib.blake2b(prefix + struct.pack("<Q", b), digest_size=64).digest()
        for b in range(-(-nbytes // 64))
    )
    return b"".join(blocks)[:nbytes]


@pytest.mark.parametrize("nbytes", [0, 1, 63, 64, 65, 1256, 80_000])
def test_keyed_bytes_is_the_one_shot_stream(nbytes):
    assert len(STREAM_CONTEXTS[-1].namespace) == 300
    for ctx in STREAM_CONTEXTS:
        assert keyed_bytes(ctx, nbytes) == one_shot_stream(ctx, nbytes)


def test_hash_stream_reads_the_one_shot_stream():
    for ctx in STREAM_CONTEXTS:
        ref = one_shot_stream(ctx, 8 * 150)
        s = HashStream(ctx)
        assert [s.next_u64() for _ in range(150)] == list(struct.unpack("<150Q", ref))


@pytest.mark.parametrize("bound", [1, 7, 1000, 2**63 + 1, 2**64 - 1])
def test_hash_stream_below_rejects_like_the_one_shot_stream(bound):
    # Past 2**63 about half the draws are rejected, so the two walks only
    # agree if both skip exactly the same words.
    limit = 2**64 - 2**64 % bound
    for ctx in STREAM_CONTEXTS[::4]:
        words = iter(struct.unpack("<1000Q", one_shot_stream(ctx, 8000)))
        expect = [v % bound for v in words if v < limit][:100]
        s = HashStream(ctx)
        assert [s.below(bound) for _ in range(len(expect))] == expect


@pytest.mark.parametrize("dim", [64, 130, 1000, 10_000])
def test_random_hv_is_the_stream_with_its_tail_masked(dim):
    for ctx in STREAM_CONTEXTS[::3]:
        raw = np.frombuffer(one_shot_stream(ctx, 8 * num_words(dim)), dtype="<u8").copy()
        raw[-1] &= tail_mask(dim)
        assert np.array_equal(random_hv(ctx, dim).words, raw)


def test_hash_stream_below_is_in_range():
    s = HashStream(SeedContext(3, "stream"))
    draws = [s.below(7) for _ in range(2000)]
    assert set(draws) <= set(range(7))
    # all residues show up in 2000 draws
    assert len(set(draws)) == 7


def test_invalid_dimensions_rejected():
    ctx = SeedContext(0, "x")
    with pytest.raises(InvalidDimensionError):
        random_hv(ctx, 0)
    with pytest.raises(InvalidDimensionError):
        random_hv(ctx, 63)
    with pytest.raises(InvalidDimensionError):
        random_hv(ctx, (1 << 20) + 1)


# -- packing and value semantics ---------------------------------------------


@given(dims, seeds)
def test_bit_packing_layout(dim, seed):
    v = random_hv(SeedContext(seed, "pack"), dim)
    bits = v.bits()
    assert bits.shape == (dim,)
    for i in (0, 1, dim // 2, dim - 1):
        assert bits[i] == (int(v.words[i // 64]) >> (i % 64)) & 1


@given(dims, seeds)
def test_tail_bits_stay_zero(dim, seed):
    a = random_hv(SeedContext(seed, "tail", 0), dim)
    b = random_hv(SeedContext(seed, "tail", 1), dim)
    for v in (a, b, a ^ b, Permutation(SeedContext(seed, "permutation"), dim).apply(a)):
        assert v.words.shape == (num_words(dim),)
        assert int(v.words[-1]) & ~int(tail_mask(dim)) == 0


def test_vectors_are_immutable():
    v = hv_of(1)
    with pytest.raises(ValueError):
        v.words[0] = 0
    with pytest.raises(AttributeError):
        v.words = v.words.copy()


def test_from_bits_round_trip(rng):
    bits = rng.integers(0, 2, size=300).astype(np.uint8)
    v = Hypervector.from_bits(bits)
    assert np.array_equal(v.bits(), bits)
    assert v.popcount() == int(bits.sum())


def test_from_bits_rejects_bad_input():
    bad = np.zeros(64, dtype=np.uint8)
    bad[5] = 2
    with pytest.raises(InvalidValueError):
        Hypervector.from_bits(bad)
    with pytest.raises(InvalidValueError):
        Hypervector.from_bits(np.zeros((2, 64), dtype=np.uint8))


def test_zero_and_complement():
    z = Hypervector.zero(256)
    v = hv_of(2, 256)
    assert z.popcount() == 0
    assert (v ^ z) == v
    assert (v ^ ones(256)).popcount() == 256 - v.popcount()
    assert hamming(v, v ^ ones(256)) == 256


# -- XOR algebra -------------------------------------------------------------


@given(seeds, dims)
def test_xor_group_laws(seed, dim):
    a = random_hv(SeedContext(seed, "alg", 0), dim)
    b = random_hv(SeedContext(seed, "alg", 1), dim)
    c = random_hv(SeedContext(seed, "alg", 2), dim)
    assert (a ^ b) ^ c == a ^ (b ^ c)
    assert a ^ b == b ^ a
    assert (a ^ a) == Hypervector.zero(dim)
    assert (a ^ b) ^ b == a


@given(seeds, dims)
def test_xor_is_an_isometry(seed, dim):
    a = random_hv(SeedContext(seed, "iso", 0), dim)
    b = random_hv(SeedContext(seed, "iso", 1), dim)
    c = random_hv(SeedContext(seed, "iso", 2), dim)
    assert hamming(a ^ c, b ^ c) == hamming(a, b)


def test_dim_mismatch_raises():
    with pytest.raises(DimensionMismatchError):
        hv_of(0, 128) ^ hv_of(0, 256)
    with pytest.raises(DimensionMismatchError):
        hamming(hv_of(0, 128), hv_of(0, 256))


# -- hamming / similarity ----------------------------------------------------


def test_hamming_basics():
    v = hv_of(3, 1000)
    assert hamming(v, v) == 0
    assert similarity(v, v) == 1.0
    assert similarity(v, v ^ ones(1000)) == 0.0


@given(seeds)
def test_hamming_triangle(seed):
    a = random_hv(SeedContext(seed, "tri", 0), 256)
    b = random_hv(SeedContext(seed, "tri", 1), 256)
    c = random_hv(SeedContext(seed, "tri", 2), 256)
    assert hamming(a, c) <= hamming(a, b) + hamming(b, c)


def test_random_pairs_near_half():
    dists = [
        similarity(hv_of(s, 10_000, 0), hv_of(s, 10_000, 1)) for s in range(30)
    ]
    assert all(0.45 <= d <= 0.55 for d in dists)


# -- permutations ------------------------------------------------------------


def _random_table_loop(ctx, n):
    """The sequential Fisher-Yates that random_table must reproduce."""
    stream = HashStream(ctx)
    table = np.arange(n, dtype=np.int64)
    for i in range(n - 1, 0, -1):
        j = stream.below(i + 1)
        table[i], table[j] = table[j], table[i]
    return table


@pytest.mark.parametrize("n", [1, 2, 5, 64, 5003])
def test_random_table_matches_the_sequential_draws(n):
    for seed in range(5):
        ctx = SeedContext(seed, "level-order", n)
        got = random_table(ctx, n)
        assert got.dtype == np.int64
        assert np.array_equal(got, _random_table_loop(ctx, n))


@pytest.mark.parametrize("offset", [0, -1], ids=["rejected", "accepted"])
def test_random_table_rejects_exactly_the_draws_the_stream_rejects(monkeypatch, offset):
    from hdglue import hv

    # The first draw (bound 7) sits at the smallest value below() rejects,
    # or one under it; a rejected draw forces the sequential fallback.
    first = 2**64 - 2**64 % 7 + offset
    stream = struct.pack("<Q", first) + b"".join(struct.pack("<Q", 3 * k) for k in range(63))
    monkeypatch.setattr(hv, "_hash_block", lambda state, block: stream[64 * block:][:64])
    ctx = SeedContext(0, "crafted")
    assert np.array_equal(random_table(ctx, 7), _random_table_loop(ctx, 7))


def test_random_table_is_permutation():
    t = random_table(SeedContext(11, "permutation"), 1000)
    assert sorted(t.tolist()) == list(range(1000))
    assert random_table(SeedContext(11, "permutation"), 1000).tolist() == t.tolist()


@given(seeds, dims)
def test_permutation_identity_and_inverse(seed, dim):
    p = Permutation(SeedContext(seed, "permutation"), dim)
    v = random_hv(SeedContext(seed, "pvec"), dim)
    assert p.apply(v, 0) == v
    assert p.apply(p.apply(v, 3), -3) == v
    assert p.apply(p.apply(v, -5), 5) == v


@given(seeds, st.integers(min_value=-6, max_value=6), st.integers(min_value=-6, max_value=6))
def test_permutation_powers_compose(seed, a, b):
    p = Permutation(SeedContext(seed, "permutation"), 256)
    v = random_hv(SeedContext(seed, "pvec"), 256)
    assert p.apply(p.apply(v, a), b) == p.apply(v, a + b)


@given(seeds)
def test_permutation_preserves_hamming_and_distributes(seed):
    p = Permutation(SeedContext(seed, "permutation"), 512)
    a = random_hv(SeedContext(seed, "pd", 0), 512)
    b = random_hv(SeedContext(seed, "pd", 1), 512)
    assert hamming(p.apply(a), p.apply(b)) == hamming(a, b)
    assert p.apply(a ^ b) == p.apply(a) ^ p.apply(b)


def test_permutation_preserves_popcount():
    p = Permutation(SeedContext(4, "permutation"), 777)
    v = hv_of(4, 777)
    assert p.apply(v, 9).popcount() == v.popcount()
