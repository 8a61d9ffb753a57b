"""Corrective-round fleets: weight arithmetic, monotonicity, exact recall."""

import numpy as np
import pytest

from hdglue import (
    ClassRegistry,
    EncoderConfig,
    HILModel,
    InvalidValueError,
)
from hdglue import _kernels
from hdglue.bundling import MILLION
from hdglue.data_io import default_spec, model_to_bytes, two_cluster_spec
from hdglue.glue import (
    ErrorFleet,
    FleetRound,
    _memory_bound,
    _nearest_within,
    fleet_correct,
    round_weight,
)
from hdglue.hv import num_words, tail_mask

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


# -- scoring each round once, against the full-rescan reference ---------------


def _top_margin(sims):
    if sims.shape[1] < 2:
        return np.zeros(sims.shape[0])
    part = np.partition(sims, sims.shape[1] - 2, axis=1)
    return part[:, -1] - part[:, -2]


def rescored_consensus(rounds, q_words, id_words):
    """Every round rescored from its own unbind scan: summed weighted scores
    (n, C) and each round's weighted score for its own pick (rounds, n)."""
    scores = np.zeros((q_words.shape[0], id_words.shape[0]))
    contrib = np.zeros((len(rounds), q_words.shape[0]))
    for ri, rnd in enumerate(rounds):
        dim = rnd.hil.config.dim
        sims = _kernels.unbind_similarities(
            q_words, rnd.hil.classification_vector.words, id_words, dim)
        weighted = (rnd.weight / MILLION) * (_top_margin(sims) + 1.0 / dim)[:, None] * sims
        scores += weighted
        contrib[ri] = weighted[np.arange(sims.shape[0]), np.argmax(sims, axis=1)]
    return scores, contrib


def rescoring_fleet_correct(rows, labels, config, registry, max_rounds):
    """fleet_correct that rescores every kept round, and the candidate's own
    subset, from scratch for each candidate; returns the fleet (with residual
    memory) and why training stopped."""
    y = np.asarray(labels, dtype=np.int64)
    n_total = len(y)
    label_order = sorted(set(y.tolist()))
    shared = HILModel(config, registry)
    q_words = shared.encoder.encode_batch(rows)
    id_words = registry.id_words(label_order)
    rounds, wrong, fleet_acc, stop = [], np.arange(n_total), 0.0, "round cap"
    while len(rounds) < max_rounds and wrong.size:
        subset = wrong
        hil = shared if not rounds else HILModel(config, registry, _encoder=shared.encoder)
        hil.update_encoded(q_words[subset], y[subset].tolist())
        sims = _kernels.unbind_similarities(
            q_words[subset], hil.classification_vector.words, id_words, config.dim)
        correct = int((np.asarray(label_order)[np.argmax(sims, axis=1)] == y[subset]).sum())
        weight = round_weight(subset.size / n_total, correct / subset.size)
        if weight <= 0:
            stop = "zero weight"
            break
        candidate = FleetRound(hil, weight, int(subset.size), correct, 0.0)
        scores, _ = rescored_consensus(rounds + [candidate], q_words, id_words)
        preds = np.asarray(label_order)[np.argmax(scores, axis=1)]
        acc = float((preds == y).mean())
        if rounds and acc <= fleet_acc:
            stop = "discarded"
            break
        candidate.fleet_accuracy = acc
        rounds.append(candidate)
        fleet_acc = acc
        new_wrong = np.flatnonzero(preds != y)
        if new_wrong.size == 0 or new_wrong.size >= wrong.size:
            wrong = new_wrong
            stop = "no progress"
            break
        wrong = new_wrong
    fleet = ErrorFleet(rounds, 0, q_words[wrong], y[wrong], 0.95)
    return fleet, stop


def clustered_task(dim, n_classes, seed):
    rng = np.random.default_rng(seed)
    y = np.repeat(np.arange(n_classes), 8)
    rows = rng.normal(size=(n_classes, 6))[y] + rng.normal(size=(len(y), 6))
    cfg = EncoderConfig(length=6, dim=dim, num_levels=9, seed=seed)
    return rows, y.tolist(), cfg, ClassRegistry(seed, dim)


@pytest.mark.parametrize("dim, n_classes, seed, max_rounds, stop", [
    (64, 4, 0, 6, "discarded"),
    (64, 16, 5, 6, "zero weight"),
    (128, 4, 2, 2, "round cap"),
])
def test_fleet_training_matches_the_rescoring_loop(dim, n_classes, seed, max_rounds, stop):
    rows, labels, cfg, registry = clustered_task(dim, n_classes, seed)
    ref, ref_stop = rescoring_fleet_correct(rows, labels, cfg, registry, max_rounds)
    assert ref_stop == stop
    fleet = fleet_correct(rows, labels, cfg, registry, max_rounds=max_rounds,
                          residual_memory=True)
    assert model_to_bytes(fleet) == model_to_bytes(ref)


def test_hard_task_fleet_matches_the_rescoring_loop():
    _, train, test, cfg, registry = hard_task()
    ref, _ = rescoring_fleet_correct(train.values, train.labels.tolist(), cfg, registry, 8)
    fleet = hard_fleet(max_rounds=8, residual_memory=True)
    assert len(fleet.rounds) > 2
    assert model_to_bytes(fleet) == model_to_bytes(ref)


def test_fleet_predictions_match_rescored_rounds_and_a_full_memory_scan():
    _, train, test, _, registry = hard_task()
    fleet = hard_fleet(max_rounds=8, residual_memory=True)
    dim = fleet.rounds[0].hil.config.dim
    assert num_words(dim) > 48  # the memory scan prunes on a word prefix here
    rows = np.vstack([train.values, test.values])
    q_words = fleet.rounds[0].hil.encoder.encode_batch(rows)
    hit, nearest = full_memory_scan(q_words, fleet.memory_words, fleet.memory_threshold, dim)
    scores, contrib = rescored_consensus(
        fleet.rounds, q_words, registry.id_words(fleet.label_order))
    expect = np.where(hit, fleet.memory_labels[nearest],
                      np.asarray(fleet.label_order)[np.argmax(scores, axis=1)])
    expect_provenance = ["memory" if h else f"round{r + 1}"
                         for h, r in zip(hit, np.argmax(contrib, axis=0))]
    picks, provenance = fleet.predict_batch(rows)
    np.testing.assert_array_equal(picks, expect)
    assert provenance == expect_provenance
    assert 0 < hit.sum() < len(rows)


# -- exact memory scan ---------------------------------------------------------


def full_memory_scan(q_words, memory_words, threshold, dim):
    """Similarity to every memory row; the first most similar row hits when it
    reaches ``threshold``. ((n,) bool, (n,) nearest index)."""
    if not memory_words.shape[0]:
        return np.zeros(len(q_words), dtype=bool), np.zeros(len(q_words), dtype=np.int64)
    sims = _kernels.unbind_similarities(q_words, None, memory_words, dim)
    best = np.argmax(sims, axis=1)
    return sims[np.arange(len(q_words)), best] >= threshold, best


def random_rows(rng, n, dim):
    words = rng.integers(0, 2**64, size=(n, num_words(dim)), dtype=np.uint64)
    words[:, -1] &= tail_mask(dim)
    return words


def flipped(row, rng, n_bits, dim, lo=0):
    """``row`` with ``n_bits`` distinct bits at or past bit ``lo`` flipped."""
    out = row.copy()
    for b in rng.choice(np.arange(lo, dim), size=n_bits, replace=False):
        out[b // 64] ^= np.uint64(1) << np.uint64(b % 64)
    return out


DIMS = (64, 130, 1000, 10_000)


def thresholds(dim):
    return (0.95, 1.0, 0.5, 0.949999, 0.950001) + tuple(1 - k / dim for k in (1, 2, 3, 7))


@pytest.mark.parametrize("dim", DIMS)
def test_memory_bound_is_the_last_count_that_reaches_the_threshold(dim):
    for threshold in thresholds(dim) + (1e-6, 0.25):
        expect = max(c for c in range(dim + 1) if 1.0 - c / dim >= threshold)
        assert _memory_bound(threshold, dim) == expect, threshold


@pytest.mark.parametrize("dim", DIMS)
def test_memory_scan_hits_exactly_at_the_bound(dim):
    rng = np.random.default_rng(dim)
    memory = random_rows(rng, 5, dim)
    for threshold in thresholds(dim):
        bound = _memory_bound(threshold, dim)
        at = np.stack([flipped(memory[j], rng, bound, dim) for j in range(5)])
        past = np.stack([flipped(memory[j], rng, bound + 1, dim) for j in range(5)])
        queries = np.vstack([at, past, random_rows(rng, 4, dim)])
        hit, nearest = _nearest_within(queries, memory, bound)
        ref_hit, ref_nearest = full_memory_scan(queries, memory, threshold, dim)
        np.testing.assert_array_equal(hit, ref_hit)
        np.testing.assert_array_equal(nearest[hit], ref_nearest[hit])
        if bound < dim // 4:  # no other random row comes that close
            assert hit[:5].all() and not hit[5:].any(), threshold
            np.testing.assert_array_equal(nearest[:5], np.arange(5))


@pytest.mark.parametrize("dim", DIMS)
def test_memory_scan_ties_pick_the_first_duplicate(dim):
    rng = np.random.default_rng(dim + 1)
    a, b = random_rows(rng, 2, dim)
    memory = np.stack([b, a, b, a])
    queries = np.stack([a, b, flipped(a, rng, 2, dim), flipped(b, rng, 2, dim)])
    hit, nearest = _nearest_within(queries, memory, _memory_bound(0.95, dim))
    assert hit.all()
    np.testing.assert_array_equal(nearest, [1, 0, 1, 0])


@pytest.mark.parametrize("dim", DIMS)
def test_memory_scan_with_one_row_and_with_none(dim):
    rng = np.random.default_rng(dim + 2)
    one = random_rows(rng, 1, dim)
    queries = np.vstack([one, flipped(one[0], rng, 1, dim)[None, :], random_rows(rng, 3, dim)])
    for threshold in thresholds(dim):
        hit, nearest = _nearest_within(queries, one, _memory_bound(threshold, dim))
        ref_hit, _ = full_memory_scan(queries, one, threshold, dim)
        np.testing.assert_array_equal(hit, ref_hit)
        assert hit[0] and not nearest.any()
        hit, _ = _nearest_within(queries, one[:0], _memory_bound(threshold, dim))
        assert not hit.any()


def test_memory_scan_rechecks_queries_that_only_match_on_the_prefix():
    dim = 10_000
    rng = np.random.default_rng(3)
    memory = random_rows(rng, 3, dim)
    bound = _memory_bound(0.95, dim)
    # Equal to a memory row over the first 48 words, far from it past them.
    far = flipped(memory[1], rng, bound + 1, dim, lo=48 * 64)
    near = flipped(memory[2], rng, bound, dim, lo=48 * 64)
    hit, nearest = _nearest_within(np.stack([far, near]), memory, bound)
    np.testing.assert_array_equal(hit, [False, True])
    assert nearest[1] == 2
