"""Multi-row calls encode and tally in one batched pass, bit-identical to row by row.

Each caller is run twice on the same input: once as shipped, with the
single-row ``SignalEncoder.encode`` switched off so any per-row fallback
fails loudly, and once as a per-row reference, with ``encode_batch``
replaced by a loop over ``encode`` and ``ConsensusAccumulator.add_words``
by a signed per-bit tally of each row, written out here. Both runs must
agree exactly: same state digests, same similarity matrices, same picks
and provenance.
"""

import numpy as np
import pytest

from hdglue import (
    ClassRegistry,
    ConsensusAccumulator,
    DimensionMismatchError,
    EncoderConfig,
    GlueModel,
    HILModel,
    InvalidValueError,
    SignalEncoder,
    _kernels,
    encoding,
    similarity,
)
from hdglue.bundling import to_millionths
from hdglue.data_io import model_from_bytes, model_to_bytes
from hdglue.glue import fleet_correct
from hdglue.hv import num_words

# Widths that are not a multiple of 64, two quantization depths.
SHAPES = [
    pytest.param(EncoderConfig(length=6, dim=130, num_levels=9, seed=3), id="dim130"),
    pytest.param(EncoderConfig(length=9, dim=1000, num_levels=17, seed=4), id="dim1000"),
]


@pytest.fixture()
def small_chunks(monkeypatch):
    """Encode chunks of one to a few rows and tally chunks of a few, so every
    batch below spans several."""
    monkeypatch.setattr(encoding, "_CHUNK_BYTES", 1 << 11)
    monkeypatch.setattr(_kernels, "_CHUNK_ENTRIES", 1 << 12)


def _per_row(self, rows):
    encoded = [self.encode(r).words for r in np.asarray(rows, dtype=np.float64)]
    return np.stack(encoded) if encoded else np.empty((0, num_words(self.dim)), np.uint64)


def _add_per_row(self, words, weight=1):
    """+m where a row's bit is set and -m where it is clear, bit by bit."""
    m = to_millionths(weight)
    i = np.arange(self.dim)
    for row in words:
        bits = (row[i // 64] >> (i % 64).astype(np.uint64)) & np.uint64(1)
        self.counters += m * (2 * bits.astype(np.int64) - 1)
        self.total_weight += m
        self.term_count += 1


def _refuse(self, values):
    raise AssertionError("a multi-row call fell back to single-row encode")


def _update_words_first(self, rows, labels):
    self.update_encoded(self.encoder.encode_batch(rows), labels)


def reference(monkeypatch, fn):
    """``fn()`` with every batch encoded and tallied one row at a time, raw
    rows included: ``HILModel.update`` encodes them first."""
    with monkeypatch.context() as m:
        m.setattr(SignalEncoder, "encode_batch", _per_row)
        m.setattr(ConsensusAccumulator, "add_words", _add_per_row)
        m.setattr(HILModel, "update", _update_words_first)
        return fn()


def batched(monkeypatch, fn):
    """``fn()`` with single-row ``encode`` switched off."""
    with monkeypatch.context() as m:
        m.setattr(SignalEncoder, "encode", _refuse)
        return fn()


def labelled_rows(cfg, n, n_classes=3, seed=0):
    """Class-shifted Gaussian rows, so models learn something from them."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, n_classes, n)
    means = rng.normal(0.0, 1.5, (n_classes, cfg.length))
    return means[labels] + rng.normal(0.0, 0.8, (n, cfg.length)), labels.tolist()


def with_nan(rows, k, c=1):
    bad = np.array(rows, dtype=np.float64)
    bad[k, c] = float("nan")
    return bad


# -- HILModel ----------------------------------------------------------------


@pytest.mark.parametrize("cfg", SHAPES)
def test_update_on_a_matrix_equals_row_by_row(monkeypatch, small_chunks, cfg):
    registry = ClassRegistry(cfg.seed, cfg.dim)
    rows, labels = labelled_rows(cfg, 60)

    def train():
        model = HILModel(cfg, registry)
        model.update(rows, labels)
        return model

    whole = batched(monkeypatch, train)
    words_first = HILModel(cfg, registry)
    words_first.update_encoded(words_first.encoder.encode_batch(rows), labels)
    one_by_one = HILModel(cfg, registry)
    for row, lab in zip(rows, labels):
        one_by_one.update(row[None, :], [lab])
    per_row = reference(monkeypatch, train)
    assert len(set(labels[:10])) > 1 and labels != sorted(labels)  # unsorted, interleaved
    assert (whole.state_digest() == words_first.state_digest() == one_by_one.state_digest()
            == per_row.state_digest())


# Widths not a multiple of 64; 2, 17 and 1025 levels; one component, a
# full uint64 word of them and one past it.
COUNT_SHAPES = [
    pytest.param(EncoderConfig(length=1, dim=577, num_levels=2, seed=5), id="dim577-len1-2lv"),
    pytest.param(EncoderConfig(length=64, dim=1000, num_levels=17, seed=6), id="dim1000-len64"),
    pytest.param(EncoderConfig(length=65, dim=2500, num_levels=1025, seed=7),
                 id="dim2500-len65-1025lv"),
]


@pytest.mark.parametrize("chunks", ["small", "default"])
@pytest.mark.parametrize("cfg", COUNT_SHAPES)
def test_slot_counts_equal_column_counts_of_the_words(request, cfg, chunks):
    if chunks == "small":
        request.getfixturevalue("small_chunks")
    enc = SignalEncoder(cfg)
    rows, _ = labelled_rows(cfg, 256)
    # 256 equal rows set some bits 256 times: one past what a uint8 sum holds.
    rows = np.vstack([np.full((256, cfg.length), 9.0), rows])
    q = enc._quantized(rows)
    for lo, hi in ((0, 256), (256, 511), (511, 512), (0, 512), (3, 3)):
        got = enc._majority.counts(q[lo:hi])
        assert got.dtype == np.int64 and got.shape == (cfg.dim,)
        assert np.array_equal(got, _kernels.column_counts(enc.encode_batch(rows[lo:hi]), cfg.dim))
    assert enc._majority.counts(q[:256]).max() == 256


@pytest.mark.parametrize("cfg", SHAPES)
def test_hil_predict_batch_matches_per_row_reference(monkeypatch, small_chunks, cfg):
    registry = ClassRegistry(cfg.seed, cfg.dim)
    model = HILModel.train(*labelled_rows(cfg, 40), cfg, registry)
    queries, _ = labelled_rows(cfg, 50, seed=1)
    picks, sims, order = batched(monkeypatch, lambda: model.predict_batch(queries))
    ref_picks, ref_sims, ref_order = reference(monkeypatch, lambda: model.predict_batch(queries))
    assert order == ref_order
    np.testing.assert_array_equal(picks, ref_picks)
    np.testing.assert_array_equal(sims, ref_sims)
    empty_picks, empty_sims, _ = model.predict_batch(np.empty((0, cfg.length)))
    assert empty_picks.shape == (0,) and empty_sims.shape == (0, len(order))


def test_hil_multi_row_calls_name_the_bad_row():
    cfg = EncoderConfig(length=6, dim=130, num_levels=9, seed=3)
    model = HILModel(cfg, ClassRegistry(3, 130))
    rows, labels = labelled_rows(cfg, 12)
    model.update(rows[:6], labels[:6])
    before = model.state_digest()
    with pytest.raises(InvalidValueError, match="row 4, component 1"):
        model.update(with_nan(rows, 4), labels)
    assert model.state_digest() == before  # nothing folded in
    with pytest.raises(InvalidValueError, match="row 7, component 1"):
        model.predict_batch(with_nan(rows, 7))
    for call in (lambda r: model.update(r, labels), model.predict_batch):
        with pytest.raises(DimensionMismatchError):
            call(rows[:, :5])


def test_refused_update_leaves_the_model_untouched():
    cfg = EncoderConfig(length=6, dim=130, num_levels=9, seed=3)
    model = HILModel(cfg, ClassRegistry(3, 130))
    rows, labels = labelled_rows(cfg, 12)
    model.update(rows[:6], labels[:6])
    before = model.state_digest()
    for bad_labels in (labels[:-1] + [-1], [0.7] * 12, labels[:-1] + ["2"]):
        with pytest.raises(InvalidValueError):
            model.update(rows, bad_labels)
        assert model.state_digest() == before
    encoded = model.encoder.encode_batch(rows)
    # 192 bits pack into as many words as 130, so only the check for bits
    # past the model's width can catch it.
    wide = SignalEncoder(EncoderConfig(length=6, dim=192, num_levels=9, seed=3))
    with pytest.raises(DimensionMismatchError, match="row 11"):
        model.update_encoded(np.vstack([encoded[:-1], wide.encode_batch(rows[-1:])]), labels)
    vectors = [model.encoder.encode(r) for r in rows]
    for bad in (vectors, encoded.astype(np.int64), encoded[:, :2], encoded[0]):
        with pytest.raises(DimensionMismatchError):
            model.update_encoded(bad, labels)
    with pytest.raises(InvalidValueError):
        model.update_encoded(encoded, labels[:-1])
    assert model.state_digest() == before


def test_refused_member_update_leaves_the_glue_untouched():
    glue, _ = glue_crew(dim=512)
    member = glue.member("m1")
    rows, labels = labelled_rows(member.hil.config, 8, seed=7)
    before = (glue.state_digest(), member.hil.state_digest(), glue.glue_vector)
    with pytest.raises(InvalidValueError):
        glue.update_member("m1", rows, labels[:-1] + [-3])
    assert (glue.state_digest(), member.hil.state_digest(), glue.glue_vector) == before


# -- GlueModel ---------------------------------------------------------------


def glue_crew(dim=10_000, lengths=(32, 20, 9, 32)):
    """Four members with their own encoders; the third is removed."""
    registry = ClassRegistry(9, dim)
    members = []
    for i, length in enumerate(lengths):
        cfg = EncoderConfig(length=length, dim=dim, num_levels=65, seed=20 + i)
        members.append(HILModel.train(*labelled_rows(cfg, 30, seed=i), cfg, registry))
    glue = GlueModel.build(members, weights=[1.0, 1.5, 2.0, 1.25], seed=2)
    glue.remove_model("m2")
    queries = {f"m{i}": labelled_rows(m.config, 80, seed=10 + i)[0]
               for i, m in enumerate(members)}
    return glue, queries


def test_member_similarities_match_per_row_reference(monkeypatch):
    # At D = 10,000 and 32 components a chunk holds a few dozen rows, so
    # 80 rows span several with the package's own chunk size.
    glue, queries = glue_crew()
    for available in (None, ["m3", "m0"]):
        names, labels, sims = batched(
            monkeypatch, lambda: glue.member_similarities(queries, available))
        ref = reference(monkeypatch, lambda: glue.member_similarities(queries, available))
        assert (names, labels) == ref[:2]
        np.testing.assert_array_equal(sims, ref[2])
        picks, _, _ = batched(monkeypatch, lambda: glue.predict_batch(queries, available))
        ref_picks, _, _ = reference(monkeypatch, lambda: glue.predict_batch(queries, available))
        np.testing.assert_array_equal(picks, ref_picks)
    # and straight from the definition for one member and one row
    names, labels, sims = glue.member_similarities(queries)
    member = glue.member("m3")
    view = member.encoder.encode(queries["m3"][5]) ^ glue.glue_vector ^ member.model_id
    assert sims[names.index("m3"), 5].tolist() == [
        similarity(view, glue.registry.id_for(c)) for c in labels]


def test_fused_calls_name_the_bad_row():
    glue, queries = glue_crew(dim=512)
    bad = dict(queries, m1=with_nan(queries["m1"], 33))
    for call in (glue.member_similarities, glue.predict_batch):
        with pytest.raises(InvalidValueError, match="row 33, component 1"):
            call(bad)
        with pytest.raises(DimensionMismatchError):
            call(dict(queries, m3=queries["m3"][:, :31]))


# -- ErrorFleet --------------------------------------------------------------

FLEET_CFG = EncoderConfig(length=9, dim=1000, num_levels=17, seed=4)


def train_fleet(residual_memory):
    rows, labels = labelled_rows(FLEET_CFG, 150, n_classes=4, seed=5)
    return fleet_correct(rows, labels, FLEET_CFG, ClassRegistry(4, FLEET_CFG.dim),
                         max_rounds=4, residual_memory=residual_memory)


@pytest.mark.parametrize("residual_memory", [False, True])
def test_fleet_matches_per_row_reference(monkeypatch, small_chunks, residual_memory):
    fleet = batched(monkeypatch, lambda: train_fleet(residual_memory))
    ref = reference(monkeypatch, lambda: train_fleet(residual_memory))
    assert [r.hil.state_digest() for r in fleet.rounds] == [
        r.hil.state_digest() for r in ref.rounds]
    assert fleet.round_weights() == ref.round_weights()
    np.testing.assert_array_equal(fleet.memory_words, ref.memory_words)
    np.testing.assert_array_equal(fleet.memory_labels, ref.memory_labels)
    assert bool(fleet.memory_labels.size) == residual_memory

    queries, _ = labelled_rows(FLEET_CFG, 150, n_classes=4, seed=5)  # memory rows among them
    queries = np.vstack([queries, labelled_rows(FLEET_CFG, 40, n_classes=4, seed=6)[0]])
    picks, provenance = batched(monkeypatch, lambda: fleet.predict_batch(queries))
    ref_picks, ref_provenance = reference(monkeypatch, lambda: fleet.predict_batch(queries))
    np.testing.assert_array_equal(picks, ref_picks)
    assert provenance == ref_provenance
    assert ("memory" in provenance) == residual_memory


def test_fleet_calls_name_the_bad_row():
    rows, labels = labelled_rows(FLEET_CFG, 30, n_classes=4, seed=5)
    registry = ClassRegistry(4, FLEET_CFG.dim)
    with pytest.raises(InvalidValueError, match="row 12, component 1"):
        fleet_correct(with_nan(rows, 12), labels, FLEET_CFG, registry)
    with pytest.raises(DimensionMismatchError):
        fleet_correct(rows[:, :8], labels, FLEET_CFG, registry)
    fleet = fleet_correct(rows, labels, FLEET_CFG, registry, max_rounds=2)
    with pytest.raises(InvalidValueError, match="row 3, component 1"):
        fleet.predict_batch(with_nan(rows, 3))
    with pytest.raises(DimensionMismatchError):
        fleet.predict_batch(rows[:, :8])


def test_fleet_rounds_share_one_encoder_in_training_and_after_loading():
    fleet = train_fleet(residual_memory=True)
    assert len(fleet.rounds) > 1
    assert all(r.hil.encoder is fleet.rounds[0].hil.encoder for r in fleet.rounds)
    data = model_to_bytes(fleet)
    loaded = model_from_bytes(data)
    assert all(r.hil.encoder is loaded.rounds[0].hil.encoder for r in loaded.rounds)
    assert model_to_bytes(loaded) == data


@pytest.mark.parametrize("chunk", [8, 1 << 10, 1 << 19], ids=["one-row", "few-rows", "default"])
def test_hamming_chunks_give_the_pairwise_counts(monkeypatch, chunk):
    monkeypatch.setattr(_kernels, "_HAMMING_CHUNK_BYTES", chunk)
    rng = np.random.default_rng(chunk)
    for n, m, w in [(0, 3, 2), (1, 1, 1), (37, 5, 3), (300, 20, 16)]:
        a = rng.integers(0, 2**64, size=(n, w), dtype=np.uint64)
        b = rng.integers(0, 2**64, size=(m, w), dtype=np.uint64)
        expect = np.array([[sum(bin(int(x) ^ int(y)).count("1") for x, y in zip(r, s))
                            for s in b] for r in a], dtype=np.int64).reshape(n, m)
        assert np.array_equal(_kernels.hamming_matrix(a, b), expect)
