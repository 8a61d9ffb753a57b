"""Level tables, quantization, and the signal encoder."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hdglue import (
    ConsensusAccumulator,
    DimensionMismatchError,
    EncoderConfig,
    Hypervector,
    InvalidValueError,
    LevelTable,
    PositionBasis,
    SeedContext,
    SignalEncoder,
    TooManyLevelsError,
    hamming,
    random_hv,
    similarity,
)
from hdglue import encoding
from hdglue.encoding import MAX_LENGTH
from hdglue.hv import num_words

CTX = SeedContext(17, "level-endpoint")


# -- level tables ------------------------------------------------------------


def test_two_levels_are_the_endpoints():
    t = LevelTable(512, 2, CTX)
    assert t.levels[0] == random_hv(SeedContext(17, "level-endpoint", 0), 512)
    assert t.levels[1] == random_hv(SeedContext(17, "level-endpoint", 1), 512)


@pytest.mark.parametrize("num_levels", [2, 5, 17, 65])
def test_pairwise_distance_equals_flip_schedule(num_levels):
    t = LevelTable(1024, num_levels, CTX)
    for i in range(num_levels):
        for j in range(i, num_levels):
            expect = sum(t.flip_schedule[i:j])
            assert hamming(t.levels[i], t.levels[j]) == expect


def test_distance_strictly_monotone():
    t = LevelTable(2048, 17, CTX)
    for i in range(17):
        gaps = [hamming(t.levels[i], t.levels[j]) for j in range(17)]
        for j in range(1, 17):
            if j <= i:
                assert gaps[j - 1] > gaps[j]
            else:
                assert gaps[j] > gaps[j - 1]


def test_flip_slices_are_near_equal():
    t = LevelTable(10_000, 65, CTX)
    total = hamming(t.levels[0], t.levels[64])
    assert total == sum(t.flip_schedule)
    lo, hi = total // 64, -(-total // 64)
    assert all(s in (lo, hi) for s in t.flip_schedule)


def test_chain_steps_flip_disjoint_endpoint_bits():
    t = LevelTable(512, 9, CTX)
    disagreement = t.levels[0] ^ t.levels[8]
    seen = np.zeros(512, dtype=bool)
    for k in range(8):
        step = (t.levels[k] ^ t.levels[k + 1]).bits().astype(bool)
        assert not (seen & step).any()  # no bit flips twice
        assert not (step & ~disagreement.bits().astype(bool)).any()
        seen |= step
    assert (seen == disagreement.bits().astype(bool)).all()


def test_too_many_levels_rejected():
    with pytest.raises(TooManyLevelsError):
        LevelTable(64, 1025, CTX)
    with pytest.raises(InvalidValueError):
        LevelTable(512, 1, CTX)


# -- quantization ------------------------------------------------------------


def position(basis: PositionBasis, i: int) -> Hypervector:
    """Role vector of component ``i``: row i of the basis's word matrix."""
    return Hypervector.from_words(basis.dim, basis.words[i])


def make_encoder(length=4, dim=512, num_levels=65, seed=17):
    return SignalEncoder(EncoderConfig(length=length, dim=dim, num_levels=num_levels, seed=seed))


def quantize_oracle(x: float, num_levels: int) -> int:
    """Nearest bin center under uniform binning of tanh-space [-1, 1]."""
    centers = np.linspace(-1.0, 1.0, num_levels)
    return int(np.argmin(np.abs(centers - math.tanh(x))))


def test_quantize_pinned_values():
    enc65 = make_encoder(num_levels=65)
    assert enc65.levels.quantize(0.0) == 32
    assert enc65.levels.quantize(1000.0) == 64
    assert enc65.levels.quantize(-1000.0) == 0
    enc5 = make_encoder(num_levels=5)
    assert enc5.levels.quantize(math.atanh(-0.5)) == 1


@given(st.floats(min_value=-50, max_value=50, allow_nan=False),
       st.sampled_from([2, 3, 5, 17, 65]))
def test_quantize_matches_nearest_center_oracle(x, num_levels):
    enc = make_encoder(num_levels=num_levels)
    got = enc.levels.quantize(x)
    # half-up ties may differ from argmin's first-hit only when exactly on
    # a boundary; compare distances instead of indices
    centers = np.linspace(-1.0, 1.0, num_levels)
    assert abs(centers[got] - math.tanh(x)) <= np.abs(centers - math.tanh(x)).min() + 1e-12


def test_quantize_rejects_non_finite():
    enc = make_encoder()
    with pytest.raises(InvalidValueError):
        enc.levels.quantize(float("nan"))
    with pytest.raises(InvalidValueError):
        enc.encode(np.array([0.0, 1.0, float("inf"), 0.0]))


def test_same_bin_means_identical_encoding():
    enc = make_encoder(length=3, num_levels=5)
    a = enc.encode(np.array([0.01, 1.0, -2.0]))
    b = enc.encode(np.array([0.02, 1.0, -2.0]))  # same tanh bin for 5 levels
    assert a == b


# -- record encoding ---------------------------------------------------------


def test_single_component_binds_exactly():
    enc = make_encoder(length=1, num_levels=65)
    out = enc.encode(np.array([0.0]))
    assert out == enc.levels.levels[32] ^ position(enc.positions, 0)


def test_encode_matches_majority_oracle():
    from hdglue.bundling import majority

    enc = make_encoder(length=6, num_levels=17)
    values = np.array([-3.0, -0.4, 0.0, 0.2, 1.0, 9.0])
    terms = [
        enc.levels.levels[enc.levels.quantize(x)] ^ position(enc.positions, i)
        for i, x in enumerate(values)
    ]
    assert enc.encode(values) == majority(terms, enc.tiebreak)


def test_encode_batch_equals_loop():
    enc = make_encoder(length=5)
    rows = np.random.default_rng(0).normal(size=(8, 5))
    batch = enc.encode_batch(rows)
    assert batch.shape == (8, num_words(enc.dim)) and batch.dtype == np.uint64
    assert not batch.flags.writeable
    for k in range(8):
        assert np.array_equal(batch[k], enc.encode(rows[k]).words)
        assert not enc.encode(rows[k]).words.flags.writeable


def test_encode_batch_spanning_chunks_equals_loop():
    # long signals at full width split a batch into several row chunks
    enc = make_encoder(length=256, dim=10_000)
    rows = np.random.default_rng(5).normal(size=(150, 256))
    batch = enc.encode_batch(rows)
    for k in range(150):
        assert np.array_equal(batch[k], enc.encode(rows[k]).words)


def reference_encode(enc: SignalEncoder, values) -> Hypervector:
    """Per-bit integer tally of levels[q_l] ^ positions[l]; exact ties take the tiebreak."""
    level_of = {x: enc.levels.quantize(x) for x in set(values)}
    levels = enc.levels.words[[level_of[x] for x in values]]
    terms = np.unpackbits((levels ^ enc.positions.words).view(np.uint8), axis=1,
                          bitorder="little")[:, : enc.dim]
    counts = terms.sum(axis=0, dtype=np.int64)
    ties = 2 * counts == len(values)
    bits = (2 * counts > len(values)) | (ties & (enc.tiebreak.bits() == 1))
    return Hypervector.from_bits(bits.astype(np.uint8))


@st.composite
def encoder_and_batch(draw):
    num_levels = draw(st.sampled_from([2, 3, 17, 65, 1025]))
    # The endpoints disagree on about dim / 2 bits (sd sqrt(dim) / 2); keep
    # widths whose count stays 6 sd clear of the num_levels - 1 needed.
    dims = [64, 100, 130, 577, 1000, 3001, 4000]
    dim = draw(st.sampled_from([d for d in dims if d / 2 - 3 * d**0.5 >= num_levels - 1]))
    # 40 components at 1025 levels split the slices into several groups
    length = draw(st.sampled_from([1, 2, 3, 4, 7, 10, 40]))
    seed = draw(st.integers(0, 2**16))
    n_rows = draw(st.integers(0, 4))
    value = st.one_of(
        st.floats(-4, 4, allow_nan=False, allow_infinity=False),
        st.sampled_from([0.0, -1e9, 1e9]),
    )
    rows = draw(st.lists(st.lists(value, min_size=length, max_size=length),
                         min_size=n_rows, max_size=n_rows))
    enc = make_encoder(length=length, dim=dim, num_levels=num_levels, seed=seed)
    return enc, np.asarray(rows, dtype=np.float64).reshape(n_rows, length)


@given(encoder_and_batch())
def test_encode_and_batch_match_reference_tally(case):
    enc, rows = case
    batch = enc.encode_batch(rows)
    assert batch.shape == (rows.shape[0], num_words(enc.dim))
    for k, row in enumerate(rows):
        expect = reference_encode(enc, row)
        assert enc.encode(row) == expect
        assert np.array_equal(batch[k], expect.words)


def extremes_and_noise(length, n_noise, seed):
    """Every component at the top level, every one at the bottom, then Gaussian rows."""
    rng = np.random.default_rng(seed)
    return np.vstack([np.full(length, 9.0), np.full(length, -9.0),
                      rng.normal(size=(n_noise, length))])


# Signals packed in one uint8, uint16, uint32 or uint64 word, or in several
# uint64 words, with counts held in int8 up to 63 components and int16 past.
# At 127 components, half the bits count 64 votes or more.
@pytest.mark.parametrize("length", [8, 9, 16, 17, 32, 33, 63, 64, 65, 127, 129])
def test_encode_at_word_and_count_boundaries_matches_reference_tally(length):
    enc = make_encoder(length=length, dim=577, num_levels=17, seed=length)
    rows = extremes_and_noise(length, 6, length)
    batch = enc.encode_batch(rows)
    for k, row in enumerate(rows):
        assert np.array_equal(batch[k], reference_encode(enc, row).words)


@pytest.mark.parametrize("length", [32, 256])
def test_batch_spanning_row_chunks_matches_reference_tally(length):
    enc = make_encoder(length=length, dim=10_000, num_levels=65, seed=length)
    # A chunk's AND words alone fill the byte budget in fewer rows than this.
    n = encoding._CHUNK_BYTES // enc._majority.packed.nbytes + 3
    rows = extremes_and_noise(length, n - 2, length)
    batch = enc.encode_batch(rows)
    for k, row in enumerate(rows):
        assert np.array_equal(batch[k], reference_encode(enc, row).words)


def test_long_signal_counts_past_int16_match_reference_tally():
    # 2 * 40,000 is past int16, so the counts are int32.
    length = 40_000
    enc = make_encoder(length=length, dim=64, num_levels=2, seed=11)
    rng = np.random.default_rng(11)
    rows = np.vstack([
        np.full(length, 9.0),
        np.full(length, -9.0),
        np.tile([-1.0, 1.0], length // 2),
        rng.choice([-2.0, -0.5, 0.5, 2.0], size=length),
    ])
    batch = enc.encode_batch(rows)
    assert enc._majority.count_type == np.int32
    for k, row in enumerate(rows):
        assert np.array_equal(batch[k], reference_encode(enc, row).words)


def test_encode_batch_reports_row_and_component():
    enc = make_encoder(length=4)
    rows = np.zeros((3, 4))
    rows[2, 1] = float("nan")
    with pytest.raises(InvalidValueError, match="row 2, component 1"):
        enc.encode_batch(rows)
    with pytest.raises(InvalidValueError):
        enc.encode_batch(np.zeros(4))
    with pytest.raises(DimensionMismatchError):
        enc.encode_batch(np.zeros((2, 3)))


def test_encode_validates_shape():
    from hdglue import DimensionMismatchError

    enc = make_encoder(length=4)
    with pytest.raises(DimensionMismatchError):
        enc.encode(np.zeros(3))
    with pytest.raises(InvalidValueError):
        enc.encode(np.zeros((2, 4)))


def test_encoding_is_deterministic_and_seed_sensitive():
    values = np.array([0.3, -1.2, 0.0, 2.0])
    a = make_encoder(seed=17).encode(values)
    b = make_encoder(seed=17).encode(values)
    c = make_encoder(seed=18).encode(values)
    assert a == b
    assert a != c


def _component_recovery_rate(trials: int) -> float:
    # probe each position out of the record; the right level must beat
    # every level at least 4 quantization steps away
    enc = make_encoder(length=32, dim=10_000, num_levels=65)
    lev = np.stack([l.words for l in enc.levels.levels])
    rng = np.random.default_rng(42)
    good = total = 0
    for _ in range(trials):
        values = rng.normal(size=32)
        record = enc.encode(values)
        for i in range(32):
            probe = record ^ position(enc.positions, i)
            idx = enc.levels.quantize(values[i])
            d = np.bitwise_count(lev ^ probe.words).sum(axis=1)
            far = np.abs(np.arange(65) - idx) >= 4
            total += 1
            good += d[idx] < d[far].min()
    return good / total


@pytest.mark.xfail(
    strict=True,
    reason="99% is above the consensus noise ceiling: 32 equal terms leave a "
    "per-term bit correlation of 0.14, so a 4-step level gap (312 bits) sits "
    "2.5 sigma out and the minimum over all far levels fails ~2% of the time",
)
def test_unbinding_recovers_component_levels():
    assert _component_recovery_rate(100) >= 0.99


def test_unbinding_recovery_meets_noise_floor():
    # the analytically expected rate; regressions below it are real bugs
    assert _component_recovery_rate(30) >= 0.97


def test_one_changed_component_of_256_stays_similar():
    enc = make_encoder(length=256, dim=10_000)
    rng = np.random.default_rng(7)
    values = rng.normal(size=256)
    changed = values.copy()
    changed[100] = -changed[100] + 3.0
    assert similarity(enc.encode(values), enc.encode(changed)) > 0.9


def test_swapping_two_unequal_components_is_visible():
    enc = make_encoder(length=32, dim=10_000)
    values = np.linspace(-2, 2, 32)
    swapped = values.copy()
    swapped[0], swapped[31] = swapped[31], swapped[0]
    assert similarity(enc.encode(values), enc.encode(swapped)) < 0.99


# -- config validation -------------------------------------------------------


def test_encoder_config_validation():
    with pytest.raises(InvalidValueError):
        EncoderConfig(length=0, dim=512, num_levels=9, seed=0)
    with pytest.raises(InvalidValueError):
        EncoderConfig(length=MAX_LENGTH + 1, dim=512, num_levels=9, seed=0)
    with pytest.raises(InvalidValueError):
        EncoderConfig(length=4, dim=512, num_levels=1, seed=0)
    with pytest.raises(Exception):
        EncoderConfig(length=4, dim=32, num_levels=9, seed=0)


def test_position_basis_near_orthogonal():
    basis = PositionBasis(10_000, 16, SeedContext(3, "position"))
    for i in range(4):
        for j in range(i + 1, 4):
            s = similarity(position(basis, i), position(basis, j))
            assert 0.45 <= s <= 0.55
