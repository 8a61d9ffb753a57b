"""Single-source classifier: training, incremental updates, recall."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdglue import (
    ClassRegistry,
    EncoderConfig,
    GlueModel,
    HILModel,
    InvalidValueError,
    SeedContext,
    UntrainedModelError,
    probe,
    random_hv,
    similarity,
)
from hdglue.data_io import nearest_centroid_oracle, two_cluster_spec

DIM = 4096


def two_class_data(seed=0, n_train=100, n_test=100):
    spec = two_cluster_spec(seed=seed)
    return spec, spec.dataset("train", n_train), spec.dataset("test", n_test)


def fresh_model(train, seed=0, dim=DIM):
    cfg = EncoderConfig(length=train.length, dim=dim, num_levels=65, seed=seed)
    registry = ClassRegistry(seed, dim)
    return HILModel.train(train.values, train.labels.tolist(), cfg, registry)


# -- registry ----------------------------------------------------------------


def test_registry_ids_are_stable_and_label_keyed():
    r = ClassRegistry(3, 512)
    assert r.id_for(4) == r.id_for(4)
    assert r.id_for(4) != r.id_for(5)
    assert r.id_for(4) == ClassRegistry(3, 512).id_for(4)


def test_registry_rejects_bad_labels():
    r = ClassRegistry(3, 512)
    with pytest.raises(InvalidValueError):
        r.id_for(-1)
    with pytest.raises(InvalidValueError):
        r.id_for(True)
    with pytest.raises(InvalidValueError):
        r.id_for("cat")


def test_registry_compatibility():
    a = ClassRegistry(3, 512)
    assert a.compatible_with(ClassRegistry(3, 512))
    assert not a.compatible_with(ClassRegistry(4, 512))
    assert not a.compatible_with(ClassRegistry(3, 1024))


# -- training structure ------------------------------------------------------


def test_single_example_model_is_one_bound_term():
    cfg = EncoderConfig(length=4, dim=512, num_levels=9, seed=1)
    registry = ClassRegistry(1, 512)
    row = np.array([[0.5, -1.0, 0.0, 2.0]])
    model = HILModel.train(row, [3], cfg, registry)
    assert model.classification_vector == registry.id_for(3) ^ model.encoder.encode(row[0])


def test_train_rejects_empty():
    cfg = EncoderConfig(length=4, dim=512, num_levels=9, seed=1)
    with pytest.raises(InvalidValueError):
        HILModel.train(np.zeros((0, 4)), [], cfg, ClassRegistry(1, 512))


def test_shuffled_training_order_is_bit_identical():
    _, train, _ = two_class_data()
    a = fresh_model(train)
    perm = np.random.default_rng(5).permutation(len(train.labels))
    b = fresh_model(type(train)(train.values[perm], train.labels[perm]))
    assert a.state_digest() == b.state_digest()


@given(st.integers(1, 199), st.integers(0, 2**32))
@settings(max_examples=10)
def test_update_equals_batch_any_split(cut, seed):
    _, train, _ = two_class_data()
    order = np.random.default_rng(seed).permutation(len(train.labels))
    v, y = train.values[order], train.labels[order]
    whole = fresh_model(type(train)(v, y))
    part = fresh_model(type(train)(v[:cut], y[:cut]))
    part.update(v[cut:], y[cut:].tolist())
    assert part.state_digest() == whole.state_digest()


def test_update_with_empty_batch_is_noop():
    _, train, _ = two_class_data()
    model = fresh_model(train)
    before = model.state_digest()
    model.update(np.zeros((0, train.length)), [])
    assert model.state_digest() == before


def test_update_refuses_an_empty_batch_with_labels():
    # The early return for an empty batch once skipped the row/label check.
    _, train, _ = two_class_data()
    model = fresh_model(train)
    before = model.state_digest()
    with pytest.raises(InvalidValueError, match="0 rows vs 2 labels"):
        model.update(np.empty((0, train.length)), [3, 4])
    assert model.state_digest() == before


def test_a_member_trained_outside_its_glue_is_seated_with_its_current_vector():
    _, train, _ = two_class_data()
    registry = ClassRegistry(0, 512)
    models = [HILModel.train(train.values, train.labels.tolist(),
                             EncoderConfig(length=train.length, dim=512, seed=k), registry)
              for k in (1, 2)]
    glue = GlueModel.build(models, seed=0)
    stale = glue.glue_vector
    models[0].update(train.values[:3], [7, 7, 7])  # past the glue
    assert glue.member("m0").vector is models[0].classification_vector
    assert 7 in glue.member("m0").labels
    fresh = GlueModel.build(models, seed=0)
    assert glue.glue_vector == fresh.glue_vector != stale
    assert glue.state_digest() == fresh.state_digest()
    glue.update_member("m0", [], [])  # no rows: nothing moves
    assert glue.state_digest() == fresh.state_digest()


def test_update_new_label_adds_one_term():
    _, train, test = two_class_data()
    model = fresh_model(train)
    base_acc = (np.asarray(model.predict_batch(test.values)[0]) == test.labels).mean()
    rng = np.random.default_rng(9)
    novel = rng.normal(loc=3.0, size=(50, train.length))
    model.update(novel, [7] * 50)
    assert set(model.labels()) == {0, 1, 7}
    after_acc = (np.asarray(model.predict_batch(test.values)[0]) == test.labels).mean()
    assert after_acc >= base_acc - 0.05


# -- prediction --------------------------------------------------------------


def test_two_cluster_accuracy_tracks_oracle():
    _, train, test = two_class_data(n_test=200)
    oracle_acc, _ = nearest_centroid_oracle(train, test)
    model = fresh_model(train, dim=10_000)
    picks, _, _ = model.predict_batch(test.values)
    acc = (np.asarray(picks) == test.labels).mean()
    assert oracle_acc >= 0.99
    assert acc >= 0.95
    assert acc >= oracle_acc - 0.04


def test_single_class_model_always_answers_it():
    cfg = EncoderConfig(length=4, dim=512, num_levels=9, seed=1)
    model = HILModel.train(
        np.random.default_rng(0).normal(size=(5, 4)), [6] * 5, cfg, ClassRegistry(1, 512)
    )
    label, scores = model.predict(np.array([9.0, 9.0, 9.0, 9.0]))
    assert label == 6
    assert set(scores) == {6}


def test_training_examples_recalled_with_margin():
    _, train, _ = two_class_data()
    model = fresh_model(train, dim=10_000)
    hits = 0
    for i in range(100):
        label, scores = model.predict(train.values[i])
        gold = int(train.labels[i])
        margin = scores[gold] - max(s for c, s in scores.items() if c != gold)
        hits += (label == gold) and margin > 0
    assert hits >= 99


def test_untrained_model_refuses_predictions():
    cfg = EncoderConfig(length=4, dim=512, num_levels=9, seed=1)
    model = HILModel(cfg, ClassRegistry(1, 512))
    with pytest.raises(UntrainedModelError):
        model.predict(np.zeros(4))


def test_raw_random_probe_sits_at_the_noise_floor():
    # a probe that never went through the encoder shares nothing with the
    # model; every class score hovers at chance
    _, train, _ = two_class_data()
    model = fresh_model(train, dim=10_000)
    sims = []
    for i in range(30):
        _, scores = model.predict_encoded(random_hv(SeedContext(i, "noise-probe"), 10_000))
        sims.extend(scores.values())
    assert all(0.45 <= s <= 0.55 for s in sims)
    assert abs(float(np.mean(sims)) - 0.5) <= 5 / np.sqrt(10_000)


def test_predict_batch_matches_scalar_path():
    _, train, test = two_class_data(n_test=20)
    model = fresh_model(train)
    picks, sims, order = model.predict_batch(test.values)
    for k in range(20):
        label, scores = model.predict(test.values[k])
        assert picks[k] == label
        for j, c in enumerate(order):
            assert sims[k, j] == pytest.approx(scores[c])


def test_bundle_probe_returns_own_class():
    _, train, _ = two_class_data()
    model = fresh_model(train)
    for c in model.labels():
        label, _ = model.predict_encoded(model.class_bundles[c])
        assert label == c


def test_seed_change_moves_accuracy_little():
    _, train, test = two_class_data(n_test=500)
    accs = []
    for seed in (0, 1):
        model = fresh_model(train, seed=seed, dim=10_000)
        picks, _, _ = model.predict_batch(test.values)
        accs.append((np.asarray(picks) == test.labels).mean())
    assert abs(accs[0] - accs[1]) < 0.02


# -- record probing ----------------------------------------------------------


def test_probe_recovers_bound_field():
    dim = 10_000
    keys = [random_hv(SeedContext(1, "key", i), dim) for i in range(3)]
    fields = [random_hv(SeedContext(1, "field", i), dim) for i in range(3)]
    from hdglue.bundling import majority

    record = majority(
        [k ^ f for k, f in zip(keys, fields)], random_hv(SeedContext(1, "tb"), dim)
    )
    idx, sim = probe(record, keys[1], fields)
    assert idx == 1
    assert sim > 0.5


def test_probe_single_pair_is_exact():
    dim = 512
    k = random_hv(SeedContext(2, "key"), dim)
    f = random_hv(SeedContext(2, "field"), dim)
    idx, sim = probe(k ^ f, k, [f, random_hv(SeedContext(2, "other"), dim)])
    assert idx == 0
    assert sim == 1.0


def test_probe_rejects_empty_candidates():
    v = random_hv(SeedContext(0, "x"), 512)
    with pytest.raises(InvalidValueError):
        probe(v, v, [])
