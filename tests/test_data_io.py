"""Datasets on disk, synthetic sources, and the model container format."""

import collections
import functools
import hashlib
import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdglue import (
    ClassRegistry,
    DataFormatError,
    EncoderConfig,
    GlueModel,
    HILModel,
    InvalidValueError,
)
from hdglue import bundling, data_io
from hdglue.data_io import (
    EmbeddingDataset,
    SyntheticNetworkSpec,
    default_spec,
    load_dataset_binary,
    load_dataset_csv,
    load_model,
    model_from_bytes,
    model_to_bytes,
    nearest_centroid_oracle,
    save_dataset_binary,
    save_dataset_csv,
    save_model,
    specialist_specs,
    two_cluster_spec,
)
from hdglue.glue import ErrorFleet, fleet_correct
from hdglue.online import OnlineConfig, OnlineSession, session_run, staged_schedule

DIM = 1024


# -- dataset container -------------------------------------------------------


def test_dataset_validation():
    with pytest.raises(InvalidValueError):
        EmbeddingDataset(np.zeros(4), [0])
    with pytest.raises(InvalidValueError):
        EmbeddingDataset(np.zeros((2, 4)), [0])
    with pytest.raises(InvalidValueError):
        EmbeddingDataset(np.zeros((2, 4)), [0, -1])
    for labels in ([0.5, 1.7], [0.0, 1.0], [True, False]):  # never truncated or cast
        with pytest.raises(InvalidValueError, match="integers"):
            EmbeddingDataset(np.zeros((2, 4)), labels)
    assert len(EmbeddingDataset(np.zeros((0, 4)), [])) == 0
    small_ints = np.asarray([3, 1], dtype=np.uint8)
    assert EmbeddingDataset(np.zeros((2, 4)), small_ints).labels.tolist() == [3, 1]
    bad = np.zeros((3, 4), dtype=np.float32)
    bad[1, 2] = np.nan
    with pytest.raises(InvalidValueError, match="row 1"):
        EmbeddingDataset(bad, [0, 1, 0])


def test_dataset_helpers():
    ds = EmbeddingDataset([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]], [1, 0, 1])
    assert len(ds) == 3
    assert ds.length == 2
    assert ds.class_labels() == [0, 1]
    assert np.array_equal(ds.rows_for(1), np.asarray([[1, 2], [5, 6]], dtype=np.float32))


def test_hand_written_csv_parses_exactly(tmp_path):
    path = tmp_path / "tiny.csv"
    path.write_text("label,e0,e1,e2\n3,0.5,-1.25,2\n0,1e-3,4,0.125\n")
    ds = load_dataset_csv(str(path))
    assert len(ds) == 2 and ds.length == 3
    assert np.array_equal(ds.labels, [3, 0])
    assert np.array_equal(
        ds.values, np.asarray([[0.5, -1.25, 2.0], [1e-3, 4.0, 0.125]], dtype=np.float32))


def test_csv_and_binary_roundtrips_agree(tmp_path):
    spec = default_spec(3)
    ds = spec.dataset("train", 5)
    csv_path, bin_path = str(tmp_path / "d.csv"), str(tmp_path / "d.bin")
    save_dataset_csv(ds, csv_path)
    save_dataset_binary(ds, bin_path)
    from_csv = load_dataset_csv(csv_path)
    from_bin = load_dataset_binary(bin_path)
    assert np.array_equal(from_csv.values, ds.values)  # %.9g keeps float32 exact
    assert np.array_equal(from_bin.values, ds.values)
    assert np.array_equal(from_csv.labels, ds.labels)
    assert np.array_equal(from_bin.labels, ds.labels)


def test_csv_rejects_bad_shapes_and_values(tmp_path):
    cases = {
        "header.csv": "lbl,e0\n1,2\n",
        "columns.csv": "label,e0,e1\n1,2\n",
        "parse.csv": "label,e0\n1,potato\n",
        "inf.csv": "label,e0,e1\n0,1,2\n1,inf,0\n",
    }
    for name, text in cases.items():
        path = tmp_path / name
        path.write_text(text)
        with pytest.raises(DataFormatError):
            load_dataset_csv(str(path))
    with pytest.raises(DataFormatError, match=":3:"):  # the inf sits on line 3
        load_dataset_csv(str(tmp_path / "inf.csv"))


def test_binary_rejects_corruption(tmp_path):
    ds = default_spec(0).dataset("train", 2)
    path = str(tmp_path / "d.bin")
    save_dataset_binary(ds, path)
    raw = open(path, "rb").read()
    for mangled in (b"XXXX" + raw[4:], raw[:6] + b"\x99" + raw[7:], raw[:-3]):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(mangled)
        with pytest.raises(DataFormatError):
            load_dataset_binary(str(bad))


# -- synthetic sources -------------------------------------------------------


def test_zero_noise_source_emits_its_class_means():
    spec = SyntheticNetworkSpec((0, 1), 4, [[1, 2, 3, 4], [5, 6, 7, 8]], 0.0)
    ds = spec.dataset("train", 3)
    for row, label in zip(ds.values, ds.labels):
        assert np.array_equal(row, spec.mean_for(int(label)))


def test_source_validation():
    with pytest.raises(InvalidValueError):
        SyntheticNetworkSpec((), 4, np.zeros((0, 4)), 1.0)
    with pytest.raises(InvalidValueError):
        SyntheticNetworkSpec((0,), 4, np.zeros((2, 4)), 1.0)  # means shape mismatch
    with pytest.raises(InvalidValueError):
        SyntheticNetworkSpec((0,), 4, np.zeros((1, 4)), -1.0)
    with pytest.raises(InvalidValueError):
        SyntheticNetworkSpec((0,), 4, np.zeros((1, 4)), 1.0, ((5, 2.0),))
    with pytest.raises(InvalidValueError):
        SyntheticNetworkSpec((0,), 4, np.zeros((1, 4)), 1.0, ((0, 0.0),))
    with pytest.raises(InvalidValueError):  # its rows hash it as an int64
        SyntheticNetworkSpec((0,), 4, np.zeros((1, 4)), 1.0, (), 2**63)
    with pytest.raises(InvalidValueError, match="must be a number"):
        SyntheticNetworkSpec((0,), 4, np.zeros((1, 4)), "1.0")
    with pytest.raises(InvalidValueError):
        default_spec(0).dataset("train", 0)


def test_generation_is_deterministic_and_split_separated():
    spec = default_spec(7)
    a = spec.dataset("train", 10)
    b = spec.dataset("train", 10)
    assert a.values.tobytes() == b.values.tobytes()
    assert np.array_equal(a.labels, b.labels)
    t = spec.dataset("test", 10)
    assert a.values.tobytes() != t.values.tobytes()
    assert default_spec(8).dataset("train", 10).values.tobytes() != a.values.tobytes()


SEED_EDGES = [0, 1, 2**32 - 1, 2**32, 2**32 + 1, 2**63, 2**64 - 1]


def test_vectorised_seeding_equals_default_rng():
    # A seed below 2**32 is one SeedSequence entropy word, one above it two.
    seeds = SEED_EDGES + np.random.default_rng(19).integers(
        0, 2**64, size=300, dtype=np.uint64, endpoint=False).tolist()
    states = data_io._pcg64_states(np.asarray(seeds, dtype=np.uint64))
    assert [{"state": s, "inc": inc} for s, inc in states] == [
        np.random.default_rng(s).bit_generator.state["state"] for s in seeds]
    assert data_io._pcg64_states(np.zeros(0, dtype=np.uint64)) == []


def reference_rows(spec, split, label, ids):
    """Rows of ``spec.batch`` generated one at a time, each from its own
    ``default_rng``: the formula every stored history and digest rests on."""
    rows = []
    for i in ids:
        h = hashlib.blake2b(digest_size=8)
        h.update(struct.pack("<q", spec.seed))
        h.update(split.encode("utf-8") + b"\x00")
        h.update(struct.pack("<qq", label, i))
        rng = np.random.default_rng(int.from_bytes(h.digest(), "little"))
        noise = rng.standard_normal(spec.length) * spec.sigma_for(label)
        rows.append((spec.mean_for(label) + noise).astype(np.float32))
    return np.stack(rows)


@pytest.mark.parametrize("spec", [
    specialist_specs(3)[1],  # sharp and dull classes
    default_spec(43),
    two_cluster_spec(5, length=1),
    two_cluster_spec(6, length=256, noise=0.0),
    SyntheticNetworkSpec((0, 7), 3, [[0.0, -0.0, 1.5], [-2.0, 0.0, 0.25]], 0.0, (), -9),
], ids=["specialist", "default", "length-1", "length-256-noiseless", "signed-zero-means"])
@pytest.mark.parametrize("split", ["train", "test"])
def test_batch_rows_are_byte_equal_to_per_row_default_rng(spec, split):
    for label in spec.classes[:4]:
        for ids in (range(37, 77), [5], [-3, 2**63 - 1, -2**63, 0, 12]):
            got = spec.batch(split, label, ids)
            assert got.dtype == np.float32 and got.shape == (len(ids), spec.length)
            assert got.tobytes() == reference_rows(spec, split, label, ids).tobytes()
    assert spec.example(split, spec.classes[0], 41).tobytes() == \
        spec.batch(split, spec.classes[0], [41])[0].tobytes()


@pytest.mark.parametrize("ids", [
    range(37, 77), range(0), range(5, -6, -3),
    range(-2**63, -2**63 + 4), range(2**63 - 4, 2**63), range(2**63 - 1, -2**63 - 1, -(2**62)),
], ids=["ascending", "empty", "descending", "lowest-ids", "highest-ids", "wide-steps"])
def test_batch_of_a_range_equals_batch_of_its_list(ids):
    # A range is checked by its ends only; its rows must not notice.
    spec = specialist_specs(3)[1]
    assert spec.batch("train", 1, ids).tobytes() == spec.batch("train", 1, list(ids)).tobytes()


def test_spec_json_roundtrip_preserves_identity():
    spec = specialist_specs(5)[2]
    back = SyntheticNetworkSpec.from_json_dict(spec.to_json_dict())
    assert back == spec
    assert back.content_hash() == spec.content_hash()
    assert back.dataset("train", 3).values.tobytes() == spec.dataset("train", 3).values.tobytes()
    with pytest.raises(DataFormatError):
        SyntheticNetworkSpec.from_json_dict({"classes": [0]})


# -- the raw-signal oracle ---------------------------------------------------


def test_oracle_on_single_class_train_always_answers_it():
    train = EmbeddingDataset([[0.0, 1.0], [0.5, 1.5]], [4, 4])
    test = EmbeddingDataset([[9.0, -9.0], [0.0, 0.0]], [4, 4])
    accuracy, picks = nearest_centroid_oracle(train, test)
    assert accuracy == 1.0
    assert np.array_equal(picks, [4, 4])


def test_oracle_separates_the_two_cluster_task():
    spec = two_cluster_spec(0)
    accuracy, _ = nearest_centroid_oracle(spec.dataset("train", 100), spec.dataset("test", 100))
    assert accuracy >= 0.99


def test_oracle_band_for_the_default_ten_class_task():
    spec = default_spec(0)
    accuracy, _ = nearest_centroid_oracle(spec.dataset("train", 100), spec.dataset("test", 100))
    assert accuracy >= 0.95


def test_oracle_band_for_a_specialist_source():
    spec = specialist_specs(0, signature_size=6)[0]  # sharp on classes 0 and 1
    train = spec.dataset("train", 100)
    test = spec.dataset("test", 100)
    _, picks = nearest_centroid_oracle(train, test)
    own = np.isin(test.labels, (0, 1))
    specialty = float((picks[own] == test.labels[own]).mean())
    others = float((picks[~own] == test.labels[~own]).mean())
    assert specialty >= 0.90
    assert others <= 0.60


# -- model container ---------------------------------------------------------


def trained_hil(dim=DIM, seed=0):
    spec = default_spec(seed, signature_size=32, noise=2.0)
    train = spec.dataset("train", 30)
    cfg = EncoderConfig(length=spec.length, dim=dim, num_levels=65, seed=seed)
    return HILModel.train(train.values, train.labels.tolist(), cfg, ClassRegistry(seed, dim))


def trained_glue_members(dim=DIM, seed=0):
    registry = ClassRegistry(seed, dim)
    members = []
    for spec in specialist_specs(seed):
        cfg = EncoderConfig(length=spec.length, dim=dim, num_levels=65, seed=spec.seed)
        train = spec.dataset("train", 20)
        members.append(HILModel.train(train.values, train.labels.tolist(), cfg, registry))
    return members


def trained_glue(dim=DIM, seed=0):
    members = trained_glue_members(dim, seed)
    glue = GlueModel.build(members, weights=[1.0, 2.0, 0.5, 1.0, 1.0], seed=seed)
    glue.remove_model("m2")          # keep an inactive seat in the picture
    glue.compress(["m3", "m4"], 1.5, name="duo")
    return glue


def trained_fleet(dim=DIM, seed=0):
    spec = default_spec(seed, signature_size=32, noise=2.2)
    train = spec.dataset("train", 30)
    cfg = EncoderConfig(length=spec.length, dim=dim, num_levels=65, seed=seed)
    return fleet_correct(train.values, train.labels.tolist(), cfg, ClassRegistry(seed, dim),
                         max_rounds=4, residual_memory=True)


def trained_session():
    config = OnlineConfig(dim=DIM, num_levels=17, seed=0, test_per_class=10)
    schedule = staged_schedule(specialist_specs(0), observe_per_class=15)
    return session_run(schedule[:8], config)


def test_container_roundtrip_is_byte_identical_for_every_kind(tmp_path):
    objects = {
        "hil": trained_hil(),
        "glue": trained_glue(),
        "fleet": trained_fleet(),
        "session": trained_session(),
    }
    for name, obj in objects.items():
        path = str(tmp_path / f"{name}.hdgm")
        save_model(obj, path)
        loaded = load_model(path)
        assert type(loaded) is type(obj)
        second = str(tmp_path / f"{name}2.hdgm")
        save_model(loaded, second)
        assert open(path, "rb").read() == open(second, "rb").read()


def test_state_digest_is_the_hash_of_the_container_bytes():
    for obj in (trained_hil(), trained_glue(), trained_session()):
        expected = hashlib.blake2b(model_to_bytes(obj), digest_size=16).hexdigest()
        assert obj.state_digest() == expected


# state_digest() of one object of each kind at D = 512. Equal digests mean
# equal files, so these pin the bits of training, fusion, correction and the
# online replay, and the bytes of the container. A change to the file format
# must update them and say why; any other change must leave them alone.
GOLDEN_DIGESTS = {
    "hil": "c5727a962f7ce43fd7a04d66db715e7b",
    "glue": "1a78e4922e10bc6dcdb1890d66f90905",
    "fleet": "aa58d192cb3965f41a0fc01d95187051",
    "session": "cabbf9a5180a45c065500cd57e790622",
}


def golden_object(kind):
    if kind == "hil":
        return trained_hil(dim=512)
    if kind == "glue":
        glue = trained_glue(dim=512)
        assert [m.hil is None for m in glue.members.values()].count(True) == 1
        return glue
    if kind == "fleet":
        spec = default_spec(0, signature_size=32, noise=2.2)
        train = spec.dataset("train", 40)
        cfg = EncoderConfig(length=spec.length, dim=512, num_levels=65, seed=0)
        fleet = fleet_correct(train.values, train.labels.tolist(), cfg, ClassRegistry(0, 512),
                              max_rounds=3, residual_memory=True)
        assert len(fleet.rounds) == 3 and len(fleet.memory_labels) > 0
        return fleet
    config = OnlineConfig(dim=512, num_levels=17, seed=0, test_per_class=10)
    return session_run(staged_schedule(specialist_specs(0), observe_per_class=15), config)


@pytest.mark.parametrize("kind", sorted(GOLDEN_DIGESTS))
def test_state_digest_equals_its_golden_value(kind):
    assert data_io.state_digest(golden_object(kind)) == GOLDEN_DIGESTS[kind]


def test_loaded_hil_predicts_identically_on_random_queries():
    model = trained_hil()
    loaded = model_from_bytes(model_to_bytes(model))
    rows = np.random.default_rng(5).normal(0.0, 2.0, size=(100, 32))
    a, sa, _ = model.predict_batch(rows)
    b, sb, _ = loaded.predict_batch(rows)
    assert np.array_equal(a, b)
    assert np.array_equal(sa, sb)


def test_loaded_hil_trains_on_like_the_original():
    # Class bundles are rebuilt on load: further training subtracts each
    # class's old fusion term, built from them.
    model = trained_hil()
    loaded = model_from_bytes(model_to_bytes(model))
    rows = np.random.default_rng(8).normal(0.0, 2.0, size=(20, 32))
    assert loaded.class_bundles == model.class_bundles
    labels = [0, 1, 2, 3] * 5
    model.update(rows, labels)
    loaded.update(rows, labels)
    assert loaded.state_digest() == model.state_digest()
    assert model_to_bytes(loaded) == model_to_bytes(model)


def test_loaded_glue_predicts_identically_on_random_queries():
    glue = trained_glue()
    loaded = model_from_bytes(model_to_bytes(glue))
    assert loaded.state_digest() == glue.state_digest()
    rng = np.random.default_rng(6)
    rows = {n: rng.normal(0.0, 2.0, size=(100, 32)) for n in glue.active_names()}
    a, sa, _ = glue.predict_batch(rows)
    b, sb, _ = loaded.predict_batch(rows)
    assert np.array_equal(a, b)
    assert np.array_equal(sa, sb)


def test_loaded_fleet_predicts_identically_on_random_queries():
    fleet = trained_fleet()
    loaded = model_from_bytes(model_to_bytes(fleet))
    assert isinstance(loaded, ErrorFleet)
    assert loaded.memory_threshold == fleet.memory_threshold
    assert [r.weight for r in loaded.rounds] == [r.weight for r in fleet.rounds]
    rows = np.random.default_rng(7).normal(0.0, 2.0, size=(100, 32))
    a_picks, a_prov = fleet.predict_batch(rows)
    b_picks, b_prov = loaded.predict_batch(rows)
    assert np.array_equal(a_picks, b_picks)
    assert a_prov == b_prov


def test_loaded_session_keeps_digest():
    session = trained_session()
    loaded = model_from_bytes(model_to_bytes(session))
    assert isinstance(loaded, OnlineSession)
    assert loaded.state_digest() == session.state_digest()
    # Only the event log is stored; what later events read is rebuilt from it.
    assert loaded.specs == session.specs
    assert loaded.intro_order == session.intro_order
    assert loaded.next_train_id == session.next_train_id


def test_fleet_file_stores_its_memory_as_one_matrix():
    fleet = trained_fleet()
    _, config, blobs = data_io._unpack_container(model_to_bytes(fleet))
    assert len(fleet.memory_labels) > 1
    assert sorted(k for k in blobs if k.startswith("memory")) == ["memory/labels", "memory/words"]
    assert bytes(blobs["memory/words"]) == fleet.memory_words.astype("<u8").tobytes()
    assert bytes(blobs["memory/labels"]) == fleet.memory_labels.astype("<i8").tobytes()
    assert all("weight" not in entry for entry in config["rounds"])  # recomputed on load


def test_glue_refuses_to_save_a_member_trained_outside_it():
    models = trained_glue_members()[:3]
    glue = GlueModel.build(models)
    rows = np.random.default_rng(9).normal(0.0, 2.0, size=(4, 32))
    models[0].update(rows, [0, 1, 2, 3])  # past the glue: its term is now stale
    with pytest.raises(InvalidValueError, match=r"'m0'.*update_member"):
        model_to_bytes(glue)
    glue.update_member("m0", np.empty((0, 32)), [])  # re-seats the term
    loaded = model_from_bytes(model_to_bytes(glue))
    glue.remove_model("m0")
    loaded.remove_model("m0")
    assert model_to_bytes(loaded) == model_to_bytes(glue)


def test_load_draws_each_tiebreak_once(monkeypatch):
    # A loaded tally goes into the accumulator its model already holds, so
    # no tiebreak vector is drawn a second time for a throwaway copy.
    draws = collections.Counter()
    original = bundling.random_hv

    def counted(ctx, dim):
        draws[ctx] += 1
        return original(ctx, dim)

    glue = trained_glue()
    assert any(m.fold_acc is not None for m in glue.members.values())
    for obj in (trained_hil(), glue):
        blob = model_to_bytes(obj)
        draws.clear()
        with monkeypatch.context() as m:
            m.setattr(bundling, "random_hv", counted)
            model_from_bytes(blob)
        assert draws and max(draws.values()) == 1, draws.most_common(3)


def test_container_rejects_corruption():
    blob = model_to_bytes(trained_hil())
    with pytest.raises(DataFormatError):
        model_from_bytes(b"NOPE" + blob[4:])
    with pytest.raises(DataFormatError):
        model_from_bytes(blob[:4] + b"\x42\x00" + blob[6:])  # version bump
    with pytest.raises(DataFormatError):
        model_from_bytes(blob[:-5])
    with pytest.raises(DataFormatError):
        model_from_bytes(blob + b"junk")
    at = len(blob) // 2  # deep inside a tally: only the trailer can tell
    with pytest.raises(DataFormatError, match="CRC-32"):
        model_from_bytes(blob[:at] + bytes([blob[at] ^ 0x10]) + blob[at + 1 :])


def test_version_1_files_are_refused_by_their_version(tmp_path):
    blob = model_to_bytes(trained_hil())
    with pytest.raises(DataFormatError, match="version 1 is not supported"):
        model_from_bytes(blob[:4] + struct.pack("<H", 1) + blob[6:])
    path = tmp_path / "d.bin"
    save_dataset_binary(default_spec(0).dataset("train", 2), str(path))
    raw = path.read_bytes()
    path.write_bytes(raw[:4] + struct.pack("<H", 1) + raw[6:])
    with pytest.raises(DataFormatError, match="version 1 is not supported"):
        load_dataset_binary(str(path))


def test_container_rejects_undecodable_blob_name():
    blob = model_to_bytes(trained_hil())
    at = blob.index(b"fusion")
    flipped = blob[:at] + bytes([blob[at] ^ 0x80]) + blob[at + 1 : -4]
    with pytest.raises(DataFormatError, match="can't decode"):
        model_from_bytes(data_io._with_crc([flipped]))  # a fresh trailer: the name check decides


def test_container_rejects_mismatched_dimension():
    # Re-packed behind a fresh trailer, so the edit reaches the dim check.
    kind, config, blobs = _container("hil")
    config = json.loads(json.dumps(config))
    config["encoder"]["dim"] = 2 * config["encoder"]["dim"]
    with pytest.raises(DataFormatError, match="dim"):
        model_from_bytes(data_io._pack_container(kind, config, blobs))


def test_save_model_refuses_unknown_objects(tmp_path):
    with pytest.raises(InvalidValueError):
        save_model({"not": "a model"}, str(tmp_path / "x.hdgm"))


@functools.cache
def _container(kind):
    obj = {"hil": trained_hil, "fleet": trained_fleet, "session": trained_session}[kind]()
    return data_io._unpack_container(model_to_bytes(obj))


def _pop_fusion(config, blobs):
    del blobs["fusion"]


def _extra_memory_label(config, blobs):
    assert len(blobs["memory/labels"]) > 0
    blobs["memory/labels"] = bytes(blobs["memory/labels"]) + bytes(8)


def _short_memory_row(config, blobs):
    assert len(blobs["memory/words"]) > 0
    blobs["memory/words"] = bytes(blobs["memory/words"])[:-3]


# Each edit is re-packed behind a fresh trailer, so it reaches the restore
# checks. Each raises DataFormatError, chained to the builtin error named
# with it; NoneType marks a check that raises DataFormatError itself. The
# hil edits once leaked their builtin errors.
MALFORMED = [
    pytest.param("hil", lambda c, b: c.pop("labels"), KeyError, id="hil-no-labels"),
    pytest.param("hil", lambda c, b: c.pop("encoder"), KeyError, id="hil-no-encoder"),
    pytest.param("hil", lambda c, b: c.pop("registry_seed"), KeyError, id="hil-no-registry"),
    pytest.param("hil", lambda c, b: c.update(labels="ab"), ValueError, id="hil-text-labels"),
    pytest.param("hil", _pop_fusion, KeyError, id="hil-no-fusion"),
    pytest.param("hil", lambda c, b: c.update(registry_seed=float("inf")), OverflowError,
                 id="hil-infinite-seed"),
    pytest.param("fleet", _extra_memory_label, type(None), id="fleet-memory-overcount"),
    pytest.param("fleet", _short_memory_row, ValueError, id="fleet-short-memory-row"),
    pytest.param("session", lambda c, b: c["events"].insert(0, ["observe", 1]), AttributeError,
                 id="session-list-for-object"),
]


@pytest.mark.parametrize("kind, edit, cause", MALFORMED)
def test_malformed_file_raises_data_format_error(kind, edit, cause):
    stored_kind, config, blobs = _container(kind)
    config, blobs = json.loads(json.dumps(config)), dict(blobs)
    edit(config, blobs)
    data = data_io._pack_container(stored_kind, config, blobs)
    with pytest.raises(DataFormatError) as raised:
        model_from_bytes(data)
    assert isinstance(raised.value.__cause__, cause)


# -- corruption ------------------------------------------------------------


def _mutate(data, blob: bytes) -> bytes:
    """``blob`` with one bit flipped, one byte overwritten, a tail cut or bytes inserted."""
    op = data.draw(st.sampled_from(["flip", "overwrite", "truncate", "insert"]))
    at = data.draw(st.integers(0, len(blob) - (op != "insert")))
    if op == "flip":
        return blob[:at] + bytes([blob[at] ^ (1 << data.draw(st.integers(0, 7)))]) + blob[at + 1:]
    if op == "overwrite":
        return blob[:at] + bytes([data.draw(st.integers(0, 255))]) + blob[at + 1:]
    if op == "truncate":
        return blob[:at]
    return blob[:at] + data.draw(st.binary(min_size=1, max_size=16)) + blob[at:]


@settings(max_examples=200)
@given(kind=st.sampled_from(["hil", "fleet", "session", "dataset"]), data=st.data())
def test_any_corruption_is_refused_or_changes_nothing(tmp_path_factory, kind, data):
    path = tmp_path_factory.mktemp("fuzz") / "file"
    if kind == "dataset":
        values = np.random.default_rng(3).normal(size=(12, 5))
        save_dataset_binary(EmbeddingDataset(values, np.arange(12)), str(path))
        blob = path.read_bytes()
    else:
        blob = data_io._pack_container(*_container(kind))  # the saved bytes, as loaded
    path.write_bytes(_mutate(data, blob))
    try:
        if kind == "dataset":
            save_dataset_binary(load_dataset_binary(str(path)), str(path))
        else:
            save_model(load_model(str(path)), str(path))
    except DataFormatError:
        return
    assert path.read_bytes() == blob
