"""Corrective-round fleets: weight arithmetic, monotonicity, exact recall."""

import numpy as np
import pytest

from hdglue import (
    ClassRegistry,
    EncoderConfig,
    HILModel,
    InvalidValueError,
)
from hdglue.bundling import MILLION
from hdglue.data_io import default_spec, two_cluster_spec
from hdglue.glue import fleet_correct, round_weight
from hdglue.hv import num_words

DIM = 4096


# -- weight arithmetic -------------------------------------------------------


def test_round_weight_products_are_exact():
    assert round_weight(1.0, 0.76) == 760_000
    assert round_weight(0.24, 0.70) == 168_000
    assert round_weight(1.0, 1.0) == MILLION
    assert round_weight(0.5, 0.0) == 0


def test_round_weight_rejects_values_outside_unit_interval():
    for coverage, accuracy in [(-0.1, 0.5), (1.1, 0.5), (0.5, -0.01), (0.5, 1.5)]:
        with pytest.raises(InvalidValueError):
            round_weight(coverage, accuracy)


# -- shared corrective-regime task -------------------------------------------

_CACHE = {}


def hard_task():
    """1,000 examples a lone model gets roughly 82% right at this dim."""
    if "task" not in _CACHE:
        spec = default_spec(0, signature_size=32, noise=2.2)
        train = spec.dataset("train", 100)
        test = spec.dataset("test", 100)
        cfg = EncoderConfig(length=spec.length, dim=DIM, num_levels=65, seed=0)
        registry = ClassRegistry(0, DIM)
        _CACHE["task"] = (spec, train, test, cfg, registry)
    return _CACHE["task"]


def hard_fleet(max_rounds, residual_memory=False):
    key = (max_rounds, residual_memory)
    if key not in _CACHE:
        _, train, _, cfg, registry = hard_task()
        _CACHE[key] = fleet_correct(
            train.values, train.labels.tolist(), cfg, registry,
            max_rounds=max_rounds, residual_memory=residual_memory,
        )
    return _CACHE[key]


# -- structure ---------------------------------------------------------------


def test_single_round_fleet_matches_the_base_model_exactly():
    _, train, test, cfg, registry = hard_task()
    base = HILModel.train(train.values, train.labels.tolist(), cfg, registry)
    fleet = hard_fleet(max_rounds=1)
    assert len(fleet.rounds) == 1
    for rows in (train.values, test.values):
        own, _, _ = base.predict_batch(rows)
        picks, provenance = fleet.predict_batch(rows)
        assert np.array_equal(picks, own)
        assert all(p == "round1" for p in provenance)


def test_perfectly_learnable_set_stops_after_one_full_weight_round():
    spec = two_cluster_spec(seed=0, noise=0.3)
    train = spec.dataset("train", 50)
    cfg = EncoderConfig(length=spec.length, dim=DIM, num_levels=65, seed=0)
    fleet = fleet_correct(train.values, train.labels.tolist(), cfg,
                          ClassRegistry(0, DIM), max_rounds=8, residual_memory=True)
    assert len(fleet.rounds) == 1
    assert fleet.rounds[0].weight == MILLION
    assert fleet.memory_words.shape == (0, num_words(DIM)) and fleet.memory_labels.size == 0
    assert fleet.training_accuracy == 1.0


def test_each_kept_round_raises_training_accuracy():
    fleet = hard_fleet(max_rounds=8)
    accs = [r.fleet_accuracy for r in fleet.rounds]
    assert len(accs) > 1
    assert all(b > a for a, b in zip(accs, accs[1:]))


def test_round_subsets_shrink_and_weights_follow_the_product_rule():
    fleet = hard_fleet(max_rounds=8)
    n_total = fleet.rounds[0].subset_size
    sizes = [r.subset_size for r in fleet.rounds]
    assert all(b < a for a, b in zip(sizes, sizes[1:]))
    for rnd in fleet.rounds:
        expected = round_weight(rnd.subset_size / n_total, rnd.correct / rnd.subset_size)
        assert rnd.weight == expected


# -- residual memory ---------------------------------------------------------


def test_residual_memory_reaches_full_training_recall():
    _, train, _, _, _ = hard_task()
    fleet = hard_fleet(max_rounds=8, residual_memory=True)
    assert len(fleet.memory_labels) > 0
    picks, provenance = fleet.predict_batch(train.values)
    assert float((picks == train.labels).mean()) == 1.0
    # memory answers exactly for its own rows and stays out of the rest
    assert sum(p == "memory" for p in provenance) == len(fleet.memory_labels)


def test_memory_rows_return_gold_label_with_memory_provenance():
    _, train, _, _, _ = hard_task()
    bare = hard_fleet(max_rounds=8)
    fleet = hard_fleet(max_rounds=8, residual_memory=True)
    wrong_before, _ = bare.predict_batch(train.values)
    still_wrong = np.flatnonzero(wrong_before != train.labels)
    assert len(still_wrong) == len(fleet.memory_labels)
    # each memory row is a still-wrong row's encoding, with its gold label
    np.testing.assert_array_equal(
        fleet.memory_words, fleet.rounds[0].hil.encoder.encode_batch(train.values[still_wrong]))
    np.testing.assert_array_equal(fleet.memory_labels, train.labels[still_wrong])
    sample = train.values[still_wrong[:5]]
    expect = train.labels[still_wrong[:5]]
    for row, gold in zip(sample, expect):
        label, provenance = fleet.predict(row)
        assert label == int(gold)
        assert provenance == "memory"


def test_far_away_query_bypasses_memory():
    fleet = hard_fleet(max_rounds=8, residual_memory=True)
    rng = np.random.default_rng(7)
    label, provenance = fleet.predict(rng.normal(0.0, 5.0, size=32))
    assert provenance.startswith("round")
    assert label in fleet.label_order


def test_without_memory_flag_nothing_is_stored():
    fleet = hard_fleet(max_rounds=8)
    assert fleet.memory_words.shape == (0, num_words(DIM)) and fleet.memory_labels.size == 0
    assert fleet.training_accuracy < 1.0


# -- held-out behaviour ------------------------------------------------------


def test_three_rounds_do_not_collapse_on_held_out_data():
    _, _, test, _, _ = hard_task()
    single = hard_fleet(max_rounds=1)
    triple = hard_fleet(max_rounds=3)
    h1 = float((single.predict_batch(test.values)[0] == test.labels).mean())
    h3 = float((triple.predict_batch(test.values)[0] == test.labels).mean())
    assert h3 >= h1 - 0.01


# -- validation --------------------------------------------------------------


def test_fleet_training_input_validation():
    _, train, _, cfg, registry = hard_task()
    with pytest.raises(InvalidValueError):
        fleet_correct(np.empty((0, 32)), [], cfg, registry)
    with pytest.raises(InvalidValueError):
        fleet_correct(train.values, train.labels.tolist()[:-1], cfg, registry)
    with pytest.raises(InvalidValueError):
        fleet_correct(train.values, train.labels.tolist(), cfg, registry, max_rounds=0)
    for threshold in (0.0, 1.2):
        with pytest.raises(InvalidValueError):
            fleet_correct(train.values, train.labels.tolist(), cfg, registry,
                          memory_threshold=threshold)


def test_fleet_training_refuses_float_and_negative_labels():
    _, train, _, cfg, registry = hard_task()
    rows = train.values[:20]
    for labels in ([0.7, 1.2] * 10, [0, 1] * 9 + [1.0, 0], [0, 1] * 9 + [1, -1]):
        with pytest.raises(InvalidValueError):
            fleet_correct(rows, labels, cfg, registry, max_rounds=1)


def test_predict_batch_requires_a_matrix():
    fleet = hard_fleet(max_rounds=1)
    with pytest.raises(InvalidValueError):
        fleet.predict_batch(np.zeros(32))
