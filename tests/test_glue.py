"""Fusing member models: membership algebra, routing, folding, ablations."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdglue import (
    ClassRegistry,
    DimensionMismatchError,
    EncoderConfig,
    GlueModel,
    HILModel,
    InvalidValueError,
    SeedContext,
    UnknownMemberError,
    UntrainedModelError,
    random_hv,
)
from hdglue.data_io import (
    SyntheticNetworkSpec,
    model_from_bytes,
    model_to_bytes,
    specialist_specs,
    two_cluster_spec,
)

DIM10K = 10_000


def train_member(spec, registry, dim, n_train=60, labels=None, num_levels=65):
    cfg = EncoderConfig(length=spec.length, dim=dim, num_levels=num_levels, seed=spec.seed)
    use = tuple(labels) if labels is not None else spec.classes
    rows = np.vstack([spec.batch("train", c, range(n_train)) for c in use])
    labs = [c for c in use for _ in range(n_train)]
    return HILModel.train(rows, labs, cfg, registry)


_CREWS = {}


def crew(seed=0, dim=DIM10K, dull=3.0, n_models=5):
    """Members plus their sources, cached because training dominates runtime."""
    key = (seed, dim, dull, n_models)
    if key not in _CREWS:
        specs = specialist_specs(seed=seed, n_models=n_models, dull=dull)
        registry = ClassRegistry(seed, dim)
        members = [train_member(s, registry, dim) for s in specs]
        _CREWS[key] = (specs, registry, members)
    return _CREWS[key]


def union_test_rows(specs, names, classes, n_test=40):
    by_name = dict(zip(names, specs))
    rows = {n: np.vstack([by_name[n].batch("test", c, range(n_test)) for c in classes])
            for n in names}
    labels = np.asarray([c for c in classes for _ in range(n_test)])
    return rows, labels


def glue_accuracy(glue, specs, classes, n_test=40):
    names = glue.active_names()
    rows, labels = union_test_rows([s for s in specs], [f"m{i}" for i in range(len(specs))],
                                   classes, n_test)
    picks, _, _ = glue.predict_batch({n: rows[n] for n in names})
    return float((picks == labels).mean())


def standalone_accuracy(model, spec, classes, n_test=40):
    rows = np.vstack([spec.batch("test", c, range(n_test)) for c in classes])
    labels = np.asarray([c for c in classes for _ in range(n_test)])
    picks, _, _ = model.predict_batch(rows)
    return float((picks == labels).mean())


def small_pair(dim=512, seed=0):
    spec = two_cluster_spec(seed=seed)
    registry = ClassRegistry(seed, dim)
    model = train_member(spec, registry, dim, n_train=40)
    return spec, registry, model


# -- single member degeneration ----------------------------------------------


def test_single_member_glue_vector_is_the_bound_term():
    _, _, model = small_pair()
    glue = GlueModel.build([model], seed=0)
    expected = random_hv(SeedContext(0, "model", 0), 512) ^ model.classification_vector
    assert glue.glue_vector == expected


def test_single_member_matches_model_on_every_input():
    spec, _, model = small_pair()
    glue = GlueModel.build([model], seed=0)
    rows = np.vstack([spec.batch("test", c, range(50)) for c in (0, 1)])
    own_picks, _, _ = model.predict_batch(rows)
    glue_picks, _, _ = glue.predict_batch({"m0": rows})
    assert np.array_equal(glue_picks, own_picks)


def test_duplicate_member_three_times_matches_single_copy():
    spec, _, model = small_pair(dim=4096)
    single = GlueModel.build([model], seed=0)
    tripled = GlueModel.build([model, model, model], seed=0)
    rows = np.vstack([spec.batch("test", c, range(50)) for c in (0, 1)])
    one, _, _ = single.predict_batch({"m0": rows})
    three, _, _ = tripled.predict_batch({n: rows for n in ("m0", "m1", "m2")})
    assert np.array_equal(one, three)


# -- membership algebra ------------------------------------------------------


def test_remove_then_readd_restores_state_bit_exactly():
    dim = 512
    specs = specialist_specs(0, n_models=3, n_classes=6)
    registry = ClassRegistry(0, dim)
    members = [train_member(s, registry, dim, n_train=10) for s in specs]
    glue = GlueModel.build(members, weights=[1.0, 2.0, 0.5], seed=0)
    before = glue.state_digest()
    glue.remove_model("m1")
    assert glue.state_digest() != before
    glue.add_model(members[1], weight=2.0, name="m1")
    assert glue.state_digest() == before


def test_scripted_remove_readd_medley_returns_to_start():
    dim = 512
    specs = specialist_specs(0, n_models=3, n_classes=6)
    registry = ClassRegistry(0, dim)
    members = [train_member(s, registry, dim, n_train=10) for s in specs]
    glue = GlueModel.build(members, seed=0)
    before = glue.state_digest()
    by_name = dict(zip(("m0", "m1", "m2"), members))
    for op, name in [("rm", "m1"), ("rm", "m2"), ("add", "m1"), ("rm", "m0"),
                     ("add", "m2"), ("add", "m0")]:
        if op == "rm":
            glue.remove_model(name)
        else:
            glue.add_model(by_name[name], name=name)
    assert glue.state_digest() == before


@settings(deadline=None, max_examples=25)
@given(st.data())
def test_any_remove_readd_walk_that_returns_restores_counters(data):
    dim = 256
    specs = specialist_specs(0, n_models=3, n_classes=6)
    registry = ClassRegistry(0, dim)
    members = [train_member(s, registry, dim, n_train=5) for s in specs]
    glue = GlueModel.build(members, seed=0)
    before = glue.state_digest()
    by_name = dict(zip(("m0", "m1", "m2"), members))
    removed = set()
    for _ in range(data.draw(st.integers(0, 8))):
        active = [n for n in by_name if n not in removed]
        if removed and (len(active) == 1 or data.draw(st.booleans())):
            name = data.draw(st.sampled_from(sorted(removed)))
            glue.add_model(by_name[name], name=name)
            removed.discard(name)
        else:
            name = data.draw(st.sampled_from(active))
            glue.remove_model(name)
            removed.add(name)
    for name in sorted(removed):
        glue.add_model(by_name[name], name=name)
    assert glue.state_digest() == before


def test_readd_seats_what_the_model_learned_while_removed():
    dim = 512
    specs = specialist_specs(0, n_models=3, n_classes=6)
    registry = ClassRegistry(0, dim)
    models = [train_member(s, registry, dim, n_train=10) for s in specs]
    glue = GlueModel.build(models, seed=0)
    glue.remove_model("m0")
    models[0].update(specs[0].batch("train", 4, range(4)), [4] * 4)
    glue.add_model(models[0], name="m0")
    assert glue.member("m0").vector == models[0].classification_vector
    assert 4 in glue.member("m0").labels
    assert glue.state_digest() == GlueModel.build(models, seed=0).state_digest()
    loaded = model_from_bytes(model_to_bytes(glue))
    for g in (glue, loaded):
        g.remove_model("m0")
    assert model_to_bytes(loaded) == model_to_bytes(glue)
    # an untrained model still takes its seat back without a term
    blank = HILModel(models[0].config, registry)
    glue.add_model(blank, name="blank")
    before = glue.state_digest()
    glue.remove_model("blank")
    glue.add_model(blank, name="blank")
    assert glue.state_digest() == before


def test_remove_sole_member_is_refused():
    _, _, model = small_pair()
    glue = GlueModel.build([model], seed=0)
    with pytest.raises(InvalidValueError):
        glue.remove_model("m0")


def test_remove_last_survivor_is_refused():
    dim = 512
    specs = specialist_specs(0, n_models=2, n_classes=4)
    registry = ClassRegistry(0, dim)
    members = [train_member(s, registry, dim, n_train=10) for s in specs]
    glue = GlueModel.build(members, seed=0)
    glue.remove_model("m0")
    with pytest.raises(InvalidValueError):
        glue.remove_model("m1")


def test_membership_bookkeeping_errors():
    dim = 512
    specs = specialist_specs(0, n_models=3, n_classes=6)
    registry = ClassRegistry(0, dim)
    members = [train_member(s, registry, dim, n_train=10) for s in specs]
    glue = GlueModel.build(members, seed=0)
    with pytest.raises(UnknownMemberError):
        glue.remove_model("nope")
    glue.remove_model("m2")
    with pytest.raises(InvalidValueError):
        glue.remove_model("m2")
    with pytest.raises(InvalidValueError):
        glue.add_model(members[0], name="m0")  # seat still active
    with pytest.raises(InvalidValueError):
        glue.add_model(members[0], name="m2")  # seat belongs to another model
    other_registry = ClassRegistry(99, dim)
    stranger = train_member(specs[0], other_registry, dim, n_train=10)
    with pytest.raises(InvalidValueError):
        glue.add_model(stranger)
    # a differently sized model is also a registry mismatch: IDs are dim-bound
    small = train_member(specs[0], ClassRegistry(0, 256), 256, n_train=10)
    with pytest.raises(InvalidValueError):
        glue.add_model(small)


def test_build_rejects_empty_and_misaligned_lists():
    _, _, model = small_pair()
    with pytest.raises(InvalidValueError):
        GlueModel.build([], seed=0)
    with pytest.raises(InvalidValueError):
        GlueModel.build([model], weights=[1.0, 2.0], seed=0)


def test_weight_scale_invariance():
    dim = 1024
    specs = specialist_specs(0, n_models=3, n_classes=6)
    registry = ClassRegistry(0, dim)
    members = [train_member(s, registry, dim, n_train=20) for s in specs]
    weights = [1.0, 2.0, 0.5]
    base = GlueModel.build(members, weights=weights, seed=0)
    scaled = GlueModel.build(members, weights=[w * 2.5 for w in weights], seed=0)
    assert base.glue_vector == scaled.glue_vector
    rows, _ = union_test_rows(specs, ["m0", "m1", "m2"], range(6), n_test=20)
    p1, _, _ = base.predict_batch(rows)
    p2, _, _ = scaled.predict_batch(rows)
    assert np.array_equal(p1, p2)


def test_update_member_matches_fresh_build_on_same_data():
    dim = 512
    specs = specialist_specs(0, n_models=2, n_classes=4)
    registry = ClassRegistry(0, dim)
    members = [train_member(s, registry, dim, n_train=10) for s in specs]
    glue = GlueModel.build(members, seed=0)
    extra = specs[0].batch("train", 2, range(10, 20))
    glue.update_member("m0", extra, [2] * 10)
    rebuilt = GlueModel.build(members, seed=0)  # members[0] was updated in place
    assert glue.state_digest() == rebuilt.state_digest()


def test_update_member_guards():
    dim = 512
    specs = specialist_specs(0, n_models=3, n_classes=6)
    registry = ClassRegistry(0, dim)
    members = [train_member(s, registry, dim, n_train=10) for s in specs]
    glue = GlueModel.build(members, seed=0)
    glue.remove_model("m1")
    rows = specs[1].batch("train", 0, range(3))
    with pytest.raises(InvalidValueError):
        glue.update_member("m1", rows, [0, 0, 0])
    name = glue.compress(["m0", "m2"], 1.0)
    with pytest.raises(InvalidValueError):
        glue.update_member(name, rows, [0, 0, 0])


def test_empty_update_changes_nothing_even_before_training():
    spec, registry, model = small_pair()
    glue = GlueModel.build([model], seed=0)
    glue.add_model(HILModel(model.config, registry), name="fresh")
    before = glue.state_digest()
    for name in ("fresh", "m0"):
        glue.update_member(name, np.zeros((0, spec.length)), [])
        assert glue.state_digest() == before


def test_cached_glue_vector_follows_every_change_of_the_tally():
    dim = 512
    specs = specialist_specs(0, n_models=4, n_classes=8)
    registry = ClassRegistry(0, dim)
    members = [train_member(s, registry, dim, n_train=10) for s in specs]
    glue = GlueModel(registry, seed=3)

    def fresh():
        # read twice: the second read is served from the cache
        assert glue.glue_vector is glue.glue_vector
        assert glue.glue_vector == glue._fusion.finalize()

    for i, model in enumerate(members):
        glue.add_model(model, weight=1.0 + i / 4, name=f"m{i}")
        fresh()
    untrained = HILModel(EncoderConfig(length=specs[0].length, dim=dim, seed=9), registry)
    glue.add_model(untrained, name="blank")
    fresh()
    glue.remove_model("m1")
    fresh()
    glue.add_model(members[1], weight=2.5, name="m1")
    fresh()
    glue.update_member("m0", specs[0].batch("train", 5, range(10, 20)), [5] * 10)
    fresh()
    glue.update_member("blank", specs[0].batch("train", 1, range(5)), [1] * 5)
    fresh()
    glue.compress(["m2", "m3"], 1.5, name="duo")
    fresh()
    data = model_to_bytes(glue)
    loaded = model_from_bytes(data)
    assert loaded.glue_vector == loaded._fusion.finalize() == glue.glue_vector
    assert model_to_bytes(loaded) == data


# -- prediction routing ------------------------------------------------------


def test_availability_subset_and_embedding_errors():
    specs, _, members = crew(0, dim=1024)
    glue = GlueModel.build(members, seed=0)
    rows, _ = union_test_rows(specs, [f"m{i}" for i in range(5)], range(10), n_test=4)
    with pytest.raises(UnknownMemberError):
        glue.predict_batch(rows, available=["m0", "ghost"])
    with pytest.raises(InvalidValueError):
        glue.predict_batch(rows, available=["m0", "m0"])
    with pytest.raises(UntrainedModelError):
        glue.predict_batch(rows, available=[])
    with pytest.raises(InvalidValueError):
        glue.predict_batch({"m0": rows["m0"]})  # four members unaccounted for
    glue.remove_model("m4")
    with pytest.raises(InvalidValueError):
        glue.predict_batch(rows, available=["m4"])


def test_predict_single_query_agrees_with_batch():
    specs, _, members = crew(0, dim=1024)
    glue = GlueModel.build(members, seed=0)
    rows, _ = union_test_rows(specs, [f"m{i}" for i in range(5)], range(10), n_test=3)
    picks, scores, order = glue.predict_batch(rows)
    label, by_class = glue.predict({n: r[0] for n, r in rows.items()})
    assert label == picks[0]
    assert by_class == pytest.approx(dict(zip(order, scores[0])))


def test_member_similarities_shape_and_row_agreement():
    specs, _, members = crew(0, dim=1024)
    glue = GlueModel.build(members, seed=0)
    rows, _ = union_test_rows(specs, [f"m{i}" for i in range(5)], range(10), n_test=3)
    names, labels, sims = glue.member_similarities(rows)
    assert names == [f"m{i}" for i in range(5)]
    assert labels == list(range(10))
    assert sims.shape == (5, 30, 10)
    rows["m1"] = rows["m1"][:-1]
    with pytest.raises(InvalidValueError):
        glue.member_similarities(rows)


def test_predict_words_equals_predict_batch_on_encoded_rows():
    specs, _, members = crew(0, dim=1024)
    glue = GlueModel.build(members, seed=0)
    rows, _ = union_test_rows(specs, [f"m{i}" for i in range(5)], range(10), n_test=3)
    words = {n: glue.member(n).encoder.encode_batch(r) for n, r in rows.items()}
    for available in (None, ["m3", "m0"]):
        picks, scores, labels = glue.predict_words(words, available)
        ref_picks, ref_scores, ref_labels = glue.predict_batch(rows, available)
        np.testing.assert_array_equal(picks, ref_picks)
        np.testing.assert_array_equal(scores, ref_scores)
        assert labels == ref_labels
    with pytest.raises(InvalidValueError):
        glue.predict_words({n: w for n, w in words.items() if n != "m2"})
    with pytest.raises(InvalidValueError):
        glue.predict_words(dict(words, m1=words["m1"][:-1]))
    for bad in (words["m4"][:, :-1], words["m4"].astype(np.int64)):
        with pytest.raises(DimensionMismatchError):
            glue.predict_words(dict(words, m4=bad))


# -- held-out behaviour of full crews ----------------------------------------


def test_five_specialists_beat_their_individuals():
    specs, _, members = crew(0)
    glue = GlueModel.build(members, seed=0)
    individuals = [standalone_accuracy(m, s, range(10)) for m, s in zip(members, specs)]
    fused = glue_accuracy(glue, specs, range(10))
    assert fused >= max(individuals) - 0.01
    assert fused >= float(np.mean(individuals)) + 0.02


def test_growing_crew_never_loses_ground():
    specs, _, members = crew(0)
    glue = GlueModel.build(members[:2], names=["m0", "m1"], seed=0)
    accs = [glue_accuracy(glue, specs, range(10))]
    for i in (2, 3, 4):
        glue.add_model(members[i], name=f"m{i}")
        accs.append(glue_accuracy(glue, specs, range(10)))
    for prev, nxt in zip(accs, accs[1:]):
        assert nxt >= prev - 0.01
    assert accs[-1] > accs[0]


def test_lone_available_member_matches_its_standalone_labels():
    specs, _, members = crew(0, dull=0.5)
    glue = GlueModel.build(members, seed=0)
    rows = np.vstack([specs[3].batch("test", c, range(40)) for c in range(10)])
    own, _, _ = members[3].predict_batch(rows)
    picks, _, _ = glue.predict_batch({"m3": rows}, available=["m3"])
    agreement = float((picks == own).mean())
    assert agreement >= 0.90


def test_exclusive_specialist_wins_most_contested_queries():
    wins = eligible = 0
    for seed in (0, 1, 2):
        specs, _, members = crew(seed)
        glue = GlueModel.build(members, seed=seed)
        names = [f"m{i}" for i in range(5)]
        rows, labels = union_test_rows(specs, names, range(10), n_test=200)
        own = {n: m.predict_batch(rows[n])[0] for n, m in zip(names, members)}
        fused, _, _ = glue.predict_batch(rows)
        owner = labels // 2  # member k is sharp on classes 2k and 2k+1
        for q in range(len(labels)):
            k = owner[q]
            specialist_right = own[f"m{k}"][q] == labels[q]
            others_wrong = all(own[f"m{j}"][q] != labels[q] for j in range(5) if j != k)
            if specialist_right and others_wrong:
                eligible += 1
                wins += int(fused[q] == labels[q])
    assert eligible >= 5
    assert wins / eligible >= 0.60


def test_member_with_new_classes_extends_the_crew():
    dim = DIM10K
    specs = specialist_specs(0)
    registry = ClassRegistry(0, dim)
    pairs = [(2 * k, 2 * k + 1) for k in range(5)]
    members = [train_member(s, registry, dim, labels=p) for s, p in zip(specs, pairs)]
    standalone = standalone_accuracy(members[4], specs[4], (8, 9))
    glue = GlueModel.build(members[:4], names=[f"m{i}" for i in range(4)], seed=0)
    assert glue.class_labels() == list(range(8))
    glue.add_model(members[4], name="m4")
    assert glue.class_labels() == list(range(10))
    by_name = dict(zip([f"m{i}" for i in range(5)], specs))
    rows = {n: np.vstack([by_name[n].batch("test", c, range(40)) for c in (8, 9)])
            for n in glue.active_names()}
    labels = np.asarray([c for c in (8, 9) for _ in range(40)])
    picks, _, _ = glue.predict_batch(rows)
    fused = float((picks == labels).mean())
    assert fused >= 0.70 * standalone


def test_dropping_the_weakest_costs_less_than_dropping_the_strongest():
    dim = 4096
    base = specialist_specs(0)
    specs = []
    for i, s in enumerate(base):
        if i == 0:
            mult = 0.5  # uniformly sharp: the strong member
        elif i == 4:
            mult = 3.0  # uniformly dull: the weak member
        else:
            specs.append(s)
            continue
        specs.insert(i, SyntheticNetworkSpec(
            s.classes, s.length, s.class_means, s.noise_scale,
            tuple((c, mult) for c in s.classes), s.seed))
    registry = ClassRegistry(0, dim)
    members = [train_member(s, registry, dim) for s in specs]
    glue = GlueModel.build(members, seed=0)
    full = glue_accuracy(glue, specs, range(10))
    glue.remove_model("m4")
    without_weak = glue_accuracy(glue, specs, range(10))
    glue.add_model(members[4], name="m4")
    glue.remove_model("m0")
    without_strong = glue_accuracy(glue, specs, range(10))
    assert abs(full - without_weak) < abs(full - without_strong)


# -- folding -----------------------------------------------------------------


def test_fold_two_identical_members_equals_keeping_one():
    spec, _, model = small_pair(dim=2048)
    single = GlueModel.build([model], seed=0)
    doubled = GlueModel.build([model, model], seed=0)
    fold = doubled.compress(["m0", "m1"], 1.0, name="pair")
    rows = np.vstack([spec.batch("test", c, range(50)) for c in (0, 1)])
    one, s_one, _ = single.predict_batch({"m0": rows})
    two, s_two, _ = doubled.predict_batch({fold: rows})
    assert np.array_equal(one, two)
    assert np.allclose(s_one, s_two)


def test_fold_bookkeeping_and_guards():
    dim = 512
    specs = specialist_specs(0, n_models=4, n_classes=8)
    registry = ClassRegistry(0, dim)
    members = [train_member(s, registry, dim, n_train=10) for s in specs]
    glue = GlueModel.build(members, weights=[1.0, 3.0, 2.0, 1.0], seed=0)
    with pytest.raises(InvalidValueError):
        glue.compress(["m0"], 1.0)
    with pytest.raises(InvalidValueError):
        glue.compress(["m0", "m0"], 1.0)
    with pytest.raises(UnknownMemberError):
        glue.compress(["m0", "ghost"], 1.0)
    glue.remove_model("m3")
    with pytest.raises(InvalidValueError):
        glue.compress(["m0", "m3"], 1.0)
    name = glue.compress(["m1", "m2"], 2.0, name="duo")
    assert name == "duo"
    assert set(glue.active_names()) == {"m0", "duo"}
    assert "m1" not in glue.members and "m2" not in glue.members
    composite = glue.member("duo")
    assert composite.encoder is members[1].encoder  # heaviest folded member answers
    assert composite.labels == set(range(8))
    assert composite.hil is None


def test_refused_fold_leaves_the_glue_untouched():
    dim = 512
    specs = specialist_specs(0, n_models=3, n_classes=6)
    registry = ClassRegistry(0, dim)
    members = [train_member(s, registry, dim, n_train=10) for s in specs]
    glue = GlueModel.build(members, seed=0)
    before = (glue.state_digest(), glue.active_names())
    # 5e12 votes would take the fusion tally past its 2**62-millionth cap.
    for bad in ({"name": "m2"}, {"new_weight": 0}, {"new_weight": 5e12}):
        with pytest.raises(InvalidValueError):
            glue.compress(["m0", "m1"], **{"new_weight": 1.0, **bad})
        assert (glue.state_digest(), glue.active_names()) == before
    # a folded member's own name is free for the composite
    assert glue.compress(["m0", "m1"], 1.0, name="m0") == "m0"
    assert glue.active_names() == ["m2", "m0"]
    assert glue.member("m0").hil is None


def test_refused_add_leaves_the_glue_byte_identical():
    dim = 512
    specs = specialist_specs(0, n_models=3, n_classes=6)
    registry = ClassRegistry(0, dim)
    members = [train_member(s, registry, dim, n_train=10) for s in specs]
    glue = GlueModel(registry, seed=0)
    clean = GlueModel(registry, seed=0)
    for bad in (0, -1.0, float("nan"), True, "1", 5e12):  # 5e12 votes pass the tally cap
        with pytest.raises(InvalidValueError):
            glue.add_model(members[0], weight=bad)
        assert model_to_bytes(glue) == model_to_bytes(clean)
    for g in (glue, clean):
        assert g.add_model(members[0]) == "m0"
        g.add_model(members[1], weight=2.0, name="b")
    with pytest.raises(InvalidValueError):
        glue.add_model(members[2], weight=0, name="c")
    glue.remove_model("b")
    clean.remove_model("b")
    for bad in (0, 5e12):
        with pytest.raises(InvalidValueError):
            glue.add_model(members[1], weight=bad, name="b")  # refused re-add
    assert model_to_bytes(glue) == model_to_bytes(clean)
    assert glue.add_model(members[2]) == clean.add_model(members[2]) == "m2"
    assert model_to_bytes(glue) == model_to_bytes(clean)


def test_fusion_total_is_the_sum_of_active_member_weights():
    # 4e12 votes is 4e18 millionths: exact as an int, a millionth off through a float.
    dim = 512
    specs = specialist_specs(0, n_models=3, n_classes=6)
    registry = ClassRegistry(0, dim)
    members = [train_member(s, registry, dim, n_train=10) for s in specs]
    heavy = 4_000_000_000_001
    glue = GlueModel(registry, seed=0)

    def check():
        active = sum(m.weight for m in glue.members.values() if m.active)
        assert glue._fusion.total_weight == active
        loaded = model_from_bytes(model_to_bytes(glue))
        assert loaded._fusion.total_weight == active

    glue.add_model(members[0], weight=heavy)
    glue.add_model(members[1], weight=3)
    glue.add_model(members[2], weight=2.5)
    assert glue.member("m0").weight == heavy * 1_000_000
    check()
    glue.remove_model("m0")
    check()
    glue.add_model(members[0], weight=heavy, name="m0")
    check()
    glue.compress(["m0", "m1"], heavy + 2, name="duo")
    check()
    assert glue.member("duo").fold_acc.total_weight == (heavy + 3) * 1_000_000


def test_digest_tells_apart_folds_that_read_out_alike():
    # Folding m0 and m1 at weights 1 and at 3 reads out one composite
    # vector, but the fold tallies differ, and so does the next fold.
    dim = 256
    specs = specialist_specs(0, n_models=3, n_classes=6)
    registry = ClassRegistry(0, dim)
    members = [train_member(s, registry, dim, n_train=10) for s in specs]
    one, three = (GlueModel.build(members, weights=[w, w, 3.0]) for w in (1.0, 3.0))
    for glue in (one, three):
        glue.compress(["m0", "m1"], 1.0, name="f")
    assert one.member("f").vector == three.member("f").vector
    assert one.state_digest() != three.state_digest()
    for glue in (one, three):
        glue.compress(["f", "m2"], 1.0, name="g")
    assert one.member("g").vector != three.member("g").vector


def test_folded_crew_queries_only_through_surviving_names():
    specs, _, members = crew(0, dim=1024)
    glue = GlueModel.build(members, seed=0)
    fold = glue.compress(["m3", "m4"], 1.0)
    names = glue.active_names()
    assert fold in names and "m3" not in names
    # m3 and m4 carry equal weight, so the earlier seat m3 answers for the fold
    rows, _ = union_test_rows(specs, [f"m{i}" for i in range(5)], range(10), n_test=4)
    queries = {n: rows[n] for n in ("m0", "m1", "m2")}
    queries[fold] = rows["m3"]
    picks, _, _ = glue.predict_batch(queries)
    assert picks.shape == (40,)
    with pytest.raises(UnknownMemberError):  # folded originals lose their seats
        glue.predict_batch({**queries, "m4": rows["m4"]}, available=["m4"])


def test_fold_three_weakest_of_seven_degrades_little():
    specs, registry, members = crew(0, n_models=7)
    names = [f"m{i}" for i in range(7)]
    standalone = [standalone_accuracy(m, s, range(10)) for m, s in zip(members, specs)]
    weakest = [names[i] for i in np.argsort(standalone)[:3]]
    glue = GlueModel.build(members, names=names, seed=0)
    before = glue_accuracy(glue, specs, range(10))
    fold = glue.compress(weakest, 1.0)
    designated = next(n for n in weakest if members[names.index(n)].encoder
                      is glue.member(fold).encoder)
    rows, labels = union_test_rows(specs, names, range(10), n_test=40)
    queries = {n: rows[n] for n in glue.active_names() if n != fold}
    queries[fold] = rows[designated]
    picks, _, _ = glue.predict_batch(queries)
    after = float((picks == labels).mean())
    assert after >= before - 0.03
