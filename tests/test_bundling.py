"""Weighted consensus accumulation: exactness, order freedom, reversibility."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hdglue import (
    DataFormatError,
    AccumulatorUnderflowError,
    ConsensusAccumulator,
    DimensionMismatchError,
    Hypervector,
    InvalidValueError,
    SeedContext,
    random_hv,
    similarity,
)
from hdglue import _kernels
from hdglue.bundling import MILLION, majority, to_millionths
from hdglue.hv import num_words

DIM = 256
TB = SeedContext(5, "tiebreak")


def vec(i: int, dim: int = DIM) -> Hypervector:
    return random_hv(SeedContext(5, "term", i), dim)


def brute_tally(pairs, dim: int) -> np.ndarray:
    """Per-bit signed tally straight from the definition: +w where bit i
    (word i // 64, shift i % 64) is set, -w where it is clear."""
    i = np.arange(dim)
    tally = np.zeros(dim, dtype=np.int64)
    for v, w in pairs:
        bits = (v.words[i // 64] >> (i % 64).astype(np.uint64)) & np.uint64(1)
        tally += w * (2 * bits.astype(np.int64) - 1)
    return tally


def brute_majority(pairs, tiebreak: Hypervector) -> Hypervector:
    """Majority of the per-bit signed tally; zero tallies take the tiebreak."""
    tally = brute_tally(pairs, tiebreak.dim)
    bits = np.where(tally > 0, 1, np.where(tally < 0, 0, tiebreak.bits()))
    return Hypervector.from_bits(bits.astype(np.uint8))


# -- fixed-point weights -----------------------------------------------------


def test_to_millionths_exact_values():
    assert to_millionths(1) == MILLION
    assert to_millionths(0.168) == 168_000
    assert to_millionths(0.76) == 760_000
    assert to_millionths(2.5) == 2_500_000
    assert to_millionths(0.000001) == 1  # the smallest representable vote
    # a stored count passes back exactly; through a float it misses by 64
    m = 4_000_000_000_001_000_001
    assert to_millionths(Fraction(m, MILLION)) == m
    assert to_millionths(m / MILLION) != m


def test_to_millionths_rejects_junk():
    # weights below half a millionth round to zero and are refused too
    for bad in (0, -1, 0.0, -0.5, 4e-7, float("nan"), float("inf"), True, "1", Fraction(-1)):
        with pytest.raises(InvalidValueError):
            to_millionths(bad)


# -- accumulator basics ------------------------------------------------------


def test_empty_accumulator_finalizes_to_tiebreak():
    acc = ConsensusAccumulator(DIM, TB)
    assert acc.finalize() == random_hv(TB, DIM)


def test_single_term_is_identity():
    acc = ConsensusAccumulator(DIM, TB)
    acc.add(vec(0), MILLION)
    assert acc.finalize() == vec(0)


def test_hand_computed_majority_dim64():
    # three terms, bit-by-bit: two ones beat one zero everywhere they overlap
    a = Hypervector.from_bits(np.tile([1, 0, 1, 0], 16).astype(np.uint8))
    b = Hypervector.from_bits(np.tile([1, 1, 0, 0], 16).astype(np.uint8))
    c = Hypervector.from_bits(np.tile([0, 1, 1, 0], 16).astype(np.uint8))
    acc = ConsensusAccumulator(64, TB)
    for v in (a, b, c):
        acc.add(v, MILLION)
    expect = np.tile([1, 1, 1, 0], 16).astype(np.uint8)
    assert np.array_equal(acc.finalize().bits(), expect)


def test_heavier_weight_dominates_every_disagreement():
    acc = ConsensusAccumulator(DIM, TB)
    acc.add(vec(0), 760_000)
    acc.add(vec(1), 168_000)
    assert acc.finalize() == vec(0)


def test_same_vector_twice_equals_double_weight():
    a = ConsensusAccumulator(DIM, TB)
    a.add(vec(0), 300_000)
    a.add(vec(0), 300_000)
    b = ConsensusAccumulator(DIM, TB)
    b.add(vec(0), 600_000)
    assert np.array_equal(a.counters, b.counters)


def test_even_split_uses_tiebreak_bits():
    acc = ConsensusAccumulator(DIM, TB)
    acc.add(vec(0), MILLION)
    acc.add(vec(1), MILLION)
    out = acc.finalize().bits()
    a, b, t = vec(0).bits(), vec(1).bits(), random_hv(TB, DIM).bits()
    agree = a == b
    assert np.array_equal(out[agree], a[agree])
    assert np.array_equal(out[~agree], t[~agree])


def test_add_validates_before_mutating():
    acc = ConsensusAccumulator(DIM, TB)
    acc.add(vec(0), MILLION)
    before = acc.counters.copy()
    with pytest.raises(DimensionMismatchError):
        acc.add(vec(1, dim=128), MILLION)
    with pytest.raises(InvalidValueError):
        acc.add(vec(1), 0)
    assert np.array_equal(acc.counters, before)
    assert acc.term_count == 1


# -- batched adds ------------------------------------------------------------


@pytest.fixture()
def small_chunks(monkeypatch):
    """A few rows per bit-count chunk at dim 64, one at dim 1000."""
    monkeypatch.setattr(_kernels, "_CHUNK_ENTRIES", 1 << 8)


def stacked(vs, dim):
    return np.stack([v.words for v in vs]) if vs else np.empty((0, num_words(dim)), np.uint64)


@pytest.mark.parametrize("dim", [64, 65, 130, 1000])
@pytest.mark.parametrize("n", [0, 1, 2, 6, 41])
@pytest.mark.parametrize("weight", [1, 0.25, 1.5])
def test_add_words_equals_a_loop_of_add(small_chunks, dim, n, weight):
    # Two batches of the same rows; an even n leaves many tied bits. Both
    # paths share one tally kernel, so each is held to the brute-force tally.
    vs = [vec(i, dim) for i in range(n)]
    batched = ConsensusAccumulator(dim, TB)
    looped = ConsensusAccumulator(dim, TB)
    for k in range(1, 3):
        batched.add_words(stacked(vs, dim), weight)
        for v in vs:
            looped.add(v, weight)
        expect = brute_tally([(v, k * to_millionths(weight)) for v in vs], dim)
        assert np.array_equal(batched.counters, expect)
        assert np.array_equal(looped.counters, expect)
        assert (batched.total_weight, batched.term_count) == (
            looped.total_weight, looped.term_count)
        assert batched.finalize() == looped.finalize()
    if n % 2 == 0 and n:
        assert not batched.counters.all()  # ties were exercised


@pytest.mark.parametrize("dim", [64, 130])
@pytest.mark.parametrize("n", [0, 1, 6])
def test_add_counts_equals_add_words_and_refuses_impossible_counts(dim, n):
    words = stacked([vec(i, dim) for i in range(n)], dim)
    counted, added = ConsensusAccumulator(dim, TB), ConsensusAccumulator(dim, TB)
    for _ in range(2):
        counted.add_counts(_kernels.column_counts(words, dim).astype(np.int32), n)
        added.add_words(words)
        assert counted == added
    before = counted.state_bytes()
    good = _kernels.column_counts(words, dim)
    over, under = good.copy(), good.copy()
    over[0], under[-1] = n + 1, -1
    for bad_counts, bad_n, error in (
        (good[:-1], n, DimensionMismatchError),
        (over, n, InvalidValueError),
        (under, n, InvalidValueError),
        (good.astype(np.float64), n, InvalidValueError),
        (good, 1.0 * n, InvalidValueError),
    ):
        with pytest.raises(error):
            counted.add_counts(bad_counts, bad_n)
        assert counted.state_bytes() == before


def test_add_words_counts_past_a_byte():
    # 600 copies of one row: a per-chunk count past 255 would wrap.
    v = vec(3, 64)
    words = np.tile(v.words, (600, 1))
    assert np.array_equal(_kernels.column_counts(words, 64), 600 * v.bits().astype(np.int64))
    acc = ConsensusAccumulator(64, TB)
    acc.add_words(words, 0.5)
    one = ConsensusAccumulator(64, TB)
    one.add(v, 300)
    assert np.array_equal(acc.counters, one.counters)
    assert acc.term_count == 600 and acc.total_weight == one.total_weight


def test_add_words_validates_before_mutating():
    acc = ConsensusAccumulator(130, TB)
    acc.add(vec(0, 130), 1)
    before = acc.state_bytes()
    for bad in (stacked([vec(1, 200)], 200), vec(1, 130).words, np.empty((0, 2), np.uint64)):
        with pytest.raises(DimensionMismatchError):
            acc.add_words(bad, 1)
    with pytest.raises(InvalidValueError):
        acc.add_words(stacked([vec(1, 130)], 130), 0)
    assert acc.state_bytes() == before


# -- removal and underflow ---------------------------------------------------


def test_sub_is_exact_inverse():
    acc = ConsensusAccumulator(DIM, TB)
    acc.add(vec(0), MILLION)
    snapshot = acc.counters.copy()
    acc.add(vec(1), 250_000)
    acc.sub(vec(1), 250_000)
    assert np.array_equal(acc.counters, snapshot)
    assert acc.term_count == 1


def test_add_sub_returns_to_zero():
    acc = ConsensusAccumulator(DIM, TB)
    acc.add(vec(0), MILLION)
    acc.sub(vec(0), MILLION)
    assert not acc.counters.any()
    assert acc.total_weight == 0
    assert acc.finalize() == random_hv(TB, DIM)


def test_sub_on_fresh_accumulator_underflows():
    acc = ConsensusAccumulator(DIM, TB)
    with pytest.raises(AccumulatorUnderflowError):
        acc.sub(vec(0), MILLION)


# -- merge -------------------------------------------------------------------


def test_merge_equals_sequential_adds():
    a = ConsensusAccumulator(DIM, TB)
    a.add(vec(0), MILLION)
    b = ConsensusAccumulator(DIM, TB)
    b.add(vec(1), 500_000)
    a.merge(b)
    seq = ConsensusAccumulator(DIM, TB)
    seq.add(vec(0), MILLION)
    seq.add(vec(1), 500_000)
    assert a == seq
    assert b.term_count == 1  # the merged-in tally is left as it was


def test_merge_with_empty_is_identity():
    a = ConsensusAccumulator(DIM, TB)
    a.add(vec(0), MILLION)
    before = a.state_bytes()
    a.merge(ConsensusAccumulator(DIM, TB))
    assert a.state_bytes() == before


def test_merge_keeps_its_own_tiebreak():
    a = ConsensusAccumulator(DIM, TB)
    b = ConsensusAccumulator(DIM, SeedContext(6, "tiebreak"))
    b.add(vec(0))
    b.sub(vec(0))  # every tally back at an exact zero
    a.merge(b)
    assert a.tiebreak_ctx == TB
    assert a.finalize() == random_hv(TB, DIM)
    with pytest.raises(DimensionMismatchError):
        a.merge(ConsensusAccumulator(DIM + 64, TB))


# -- the total weight cap ----------------------------------------------------


def test_tallies_past_the_weight_cap_are_refused_before_anything_moves():
    # The heaviest single term a tally holds is 2**62 - 1 millionths, exactly.
    edge, row, top = ConsensusAccumulator(DIM, TB), vec(0).bits().astype(np.int64), (1 << 62) - 1
    edge._tally(row, 1, top)
    assert np.array_equal(edge.counters, brute_tally([(vec(0), top)], DIM))
    edge._tally(row, 1, top, -1)
    assert not edge.counters.any() and edge.total_weight == 0
    with pytest.raises(InvalidValueError, match="cap"):
        edge._tally(row, 1, top + 1)
    # 2**62 millionths is about 4.6e12 votes; near it the counters stay exact.
    acc = ConsensusAccumulator(DIM, TB)
    acc.add(vec(0), 4_000_000_000_000)
    acc.add(vec(1), 600_000_000_000)
    pairs = [(vec(0), 4 * 10**18), (vec(1), 6 * 10**17)]
    assert np.array_equal(acc.counters, brute_tally(pairs, DIM))
    assert acc.finalize() == brute_majority(pairs, random_hv(TB, DIM))
    heavy = ConsensusAccumulator(DIM, TB)
    heavy.add(vec(0), 4e12)
    before = acc.state_bytes(), heavy.state_bytes()
    for change in (lambda: heavy.add(vec(0), 4e12), lambda: heavy.add(vec(0), 1e13),
                   lambda: heavy.add_words(np.stack([vec(1).words] * 2), 4e11),
                   lambda: acc.merge(heavy), lambda: heavy.merge(acc)):
        with pytest.raises(InvalidValueError, match="cap"):
            change()
        assert (acc.state_bytes(), heavy.state_bytes()) == before


# -- order independence and oracle agreement ---------------------------------


@given(st.lists(st.tuples(st.integers(0, 30), st.integers(1, 3 * MILLION)),
                min_size=1, max_size=25),
       st.randoms(use_true_random=False))
def test_any_order_same_counters(pairs, shuffler):
    terms = [(vec(i), w) for i, w in pairs]
    a = ConsensusAccumulator(DIM, TB)
    for v, w in terms:
        a.add(v, w)
    shuffled = list(terms)
    shuffler.shuffle(shuffled)
    b = ConsensusAccumulator(DIM, TB)
    for v, w in shuffled:
        b.add(v, w)
    assert np.array_equal(a.counters, b.counters)
    assert a.finalize() == b.finalize()


@given(st.lists(st.tuples(st.integers(0, 40), st.integers(1, 5 * MILLION)),
                min_size=1, max_size=40))
def test_finalize_matches_brute_force(pairs):
    terms = [(vec(i), w) for i, w in pairs]
    acc = ConsensusAccumulator(DIM, TB)
    for v, w in terms:
        acc.add(v, w)
    assert acc.finalize() == brute_majority(terms, random_hv(TB, DIM))


@pytest.mark.parametrize("dim", [64, 65, 100, 130, 1000])
def test_finalize_matches_brute_force_at_any_width(dim):
    # two equal weights leave about half the tallies exactly at zero
    terms = [(vec(0, dim), 2), (vec(1, dim), 2)]
    tiebreak = SeedContext(6, "tiebreak")
    acc = ConsensusAccumulator(dim, tiebreak)
    for v, w in terms:
        acc.add(v, w)
    out = acc.finalize()
    assert out == brute_majority(terms, random_hv(tiebreak, dim))
    assert not out.words.flags.writeable


@given(st.integers(1, 1000))
def test_weight_scaling_leaves_finalize_unchanged(k):
    terms = [(vec(i), w) for i, w in [(0, 3), (1, 5), (2, 5), (3, 2)]]
    a = ConsensusAccumulator(DIM, TB)
    b = ConsensusAccumulator(DIM, TB)
    for v, w in terms:
        a.add(v, w)
        b.add(v, w * k)
    assert a.finalize() == b.finalize()


# -- equal-weight kernel path ------------------------------------------------


@given(st.integers(1, 33), st.integers(0, 2**32))
def test_majority_kernel_matches_accumulator(n, seed):
    tb = random_hv(SeedContext(seed, "tb"), DIM)
    vs = [random_hv(SeedContext(seed, "kern", i), DIM) for i in range(n)]
    acc = ConsensusAccumulator(DIM, SeedContext(seed, "tb"))
    for v in vs:
        acc.add(v, MILLION)
    assert majority(vs, tb) == acc.finalize()


@pytest.mark.parametrize("dim", [64, 65, 130, 1000])
@pytest.mark.parametrize("n", [1, 2, 7, 40])
def test_majority_matches_brute_force_across_chunks(small_chunks, dim, n):
    vs = [vec(i, dim) for i in range(n)]
    tiebreak = random_hv(TB, dim)
    assert majority(vs, tiebreak) == brute_majority([(v, 1) for v in vs], tiebreak)


def test_majority_of_identical_terms_is_the_term():
    v = vec(9)
    assert majority([v] * 7, random_hv(TB, DIM)) == v


def test_similarity_pull_toward_terms():
    # odd equal-weight bundles stay measurably closer than chance to each term
    dim = 10_000
    wins = 0
    trials = 0
    for t in range(40):
        n = 3 + 2 * (t % 16)  # odd sizes 3..33
        vs = [random_hv(SeedContext(t, "pull", i), dim) for i in range(n)]
        out = majority(vs, random_hv(SeedContext(t, "pull-tb"), dim))
        for v in vs[:3]:
            trials += 1
            if similarity(out, v) > 0.5 + 3 / np.sqrt(dim):
                wins += 1
    assert wins / trials >= 0.95


# -- state bytes -------------------------------------------------------------


def loaded(raw: bytes) -> ConsensusAccumulator:
    acc = ConsensusAccumulator(DIM, TB)
    acc.load_state_bytes(raw)
    return acc


def test_state_bytes_round_trip():
    acc = ConsensusAccumulator(DIM, TB)
    acc.add(vec(0), 760_000)
    acc.add(vec(1), 168_000)
    back = loaded(acc.state_bytes())
    assert back == acc
    assert back.state_bytes() == acc.state_bytes()


def test_state_bytes_rejects_corrupt_magnitudes():
    acc = ConsensusAccumulator(DIM, TB)
    acc.add(vec(0), MILLION)
    raw = bytearray(acc.state_bytes())
    raw[-1] = 0x7F  # counter now exceeds total_weight
    with pytest.raises(DataFormatError):
        loaded(bytes(raw))


def test_state_bytes_rejects_truncation():
    acc = ConsensusAccumulator(DIM, TB)
    acc.add(vec(0), MILLION)
    raw = acc.state_bytes()
    with pytest.raises(DataFormatError):
        loaded(raw[:-8])
    with pytest.raises(DataFormatError):
        loaded(raw[:10])
