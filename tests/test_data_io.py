"""Datasets on disk, synthetic sources, and the model container format."""

import collections
import functools
import json
import struct

import numpy as np
import pytest

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


def trained_glue(dim=DIM, seed=0):
    specs = specialist_specs(seed)
    registry = ClassRegistry(seed, dim)
    members = []
    for spec in specs:
        cfg = EncoderConfig(length=spec.length, dim=dim, num_levels=65, seed=spec.seed)
        train = spec.dataset("train", 20)
        members.append(HILModel.train(train.values, train.labels.tolist(), cfg, registry))
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


def test_loaded_hil_predicts_identically_on_random_queries():
    model = trained_hil()
    loaded = model_from_bytes(model_to_bytes(model))
    rows = np.random.default_rng(5).normal(0.0, 2.0, size=(100, 32))
    a, sa, _ = model.predict_batch(rows)
    b, sb, _ = loaded.predict_batch(rows)
    assert np.array_equal(a, b)
    assert np.array_equal(sa, sb)


def test_loaded_hil_trains_on_like_the_original():
    # Class bundles are rebuilt on load: direct comparison reads them, and
    # further training subtracts each class's old fusion term, built from them.
    model = trained_hil()
    loaded = model_from_bytes(model_to_bytes(model))
    rows = np.random.default_rng(8).normal(0.0, 2.0, size=(20, 32))
    assert loaded.predict_direct(rows[0]) == model.predict_direct(rows[0])
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


def test_container_rejects_undecodable_blob_name():
    blob = model_to_bytes(trained_hil())
    at = blob.index(b"fusion")
    flipped = blob[:at] + bytes([blob[at] ^ 0x80]) + blob[at + 1 :]
    with pytest.raises(DataFormatError):
        model_from_bytes(flipped)


def test_container_rejects_mismatched_dimension():
    blob = model_to_bytes(trained_hil())
    patched = blob.replace(b'"dim":1024', b'"dim":2048', 1)
    assert patched != blob
    with pytest.raises(DataFormatError):
        model_from_bytes(patched)


def test_save_model_refuses_unknown_objects(tmp_path):
    with pytest.raises(InvalidValueError):
        save_model({"not": "a model"}, str(tmp_path / "x.hdgm"))


@functools.cache
def _container(kind):
    obj = {"hil": trained_hil, "fleet": trained_fleet, "session": trained_session}[kind]()
    return data_io._unpack_container(model_to_bytes(obj))


def _with_memory_size(config, blobs, size):
    assert config["memory_size"] > 0
    config["memory_size"] = size


def _pop_fusion(config, blobs):
    del blobs["fusion"]


def _short_memory_row(config, blobs):
    assert config["memory_size"] > 0
    blobs["memory/0"] = b"abc"


def _miscount(config, blobs):
    counts = config["example_counts"]
    first = sorted(counts)[0]
    counts[first] += 1


# Each edit once leaked the builtin error named with it; the last one
# loaded without complaint. Now each raises DataFormatError, chained to
# that builtin error.
MALFORMED = [
    pytest.param("hil", lambda c, b: c.pop("labels"), KeyError, id="hil-no-labels"),
    pytest.param("hil", lambda c, b: c.pop("encoder"), KeyError, id="hil-no-encoder"),
    pytest.param("hil", lambda c, b: c.pop("example_counts"), KeyError, id="hil-no-counts"),
    pytest.param("hil", lambda c, b: c.pop("registry_seed"), KeyError, id="hil-no-registry"),
    pytest.param("hil", lambda c, b: c.update(labels="ab"), ValueError, id="hil-text-labels"),
    pytest.param("hil", _pop_fusion, KeyError, id="hil-no-fusion"),
    pytest.param("hil", lambda c, b: c.update(registry_seed=float("inf")), OverflowError,
                 id="hil-infinite-seed"),
    pytest.param("fleet", lambda c, b: _with_memory_size(c, b, c["memory_size"] + 1), KeyError,
                 id="fleet-memory-overcount"),
    pytest.param("fleet", _short_memory_row, struct.error, id="fleet-short-memory-row"),
    pytest.param("session", lambda c, b: c.update(next_train_id=[]), AttributeError,
                 id="session-list-for-object"),
    pytest.param("hil", _miscount, type(None), id="hil-counts-disagree-with-tally"),
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
