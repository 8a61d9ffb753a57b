"""Input from outside the program fails with a typed error, never a builtin one.

Each case in ``CASES`` once leaked the error named in its id, or loaded as
the value it names: a schedule, a source spec, a CSV dataset, a spec file
handed to ``hdglue gen-synth``, a stored hypervector or tally whose header
names a width out of range, or a model file whose config holds a float or a
string where an integer belongs. Each case in ``CONFIG_CASES`` is a config
field that is not an integer; it once was accepted or raised a bare
TypeError.
"""

import json
import struct
from dataclasses import astuple

import pytest

import numpy as np

from hdglue import data_io
from hdglue.bundling import ConsensusAccumulator
from hdglue.cli import main
from hdglue.data_io import (
    SyntheticNetworkSpec,
    default_spec,
    load_dataset_csv,
    model_from_bytes,
    model_to_bytes,
)
from hdglue.encoding import EncoderConfig
from hdglue.errors import DataFormatError, InvalidValueError
from hdglue.glue import GlueModel, fleet_correct
from hdglue.hil import ClassRegistry, HILModel
from hdglue.hv import Hypervector, SeedContext
from hdglue.online import AddModel, Observe, OnlineConfig, OnlineSession, schedule_from_json


def _spec_dict(**changes):
    return dict(default_spec(0, n_classes=2, length=8, signature_size=4).to_json_dict(), **changes)


def _schedule(*events):
    return lambda tmp_path: schedule_from_json(json.dumps(list(events)))


def _spec(**changes):
    return lambda tmp_path: SyntheticNetworkSpec.from_json_dict(_spec_dict(**changes))


def _container(make, section, **changes):
    """``make()``'s model file, with ``changes`` made to one section of its config."""
    def feed(tmp_path):
        kind, config, blobs = data_io._unpack_container(model_to_bytes(make()))
        config[section].update(changes)
        model_from_bytes(data_io._pack_container(kind, config, blobs))
    return feed


def _hil():
    cfg = EncoderConfig(length=4, dim=256, num_levels=9, seed=0)
    return HILModel.train(np.zeros((2, 4)), [0, 1], cfg, ClassRegistry(0, 256))


def _session():
    return OnlineSession(OnlineConfig(dim=256, num_levels=9, test_per_class=2))


def _csv_not_utf8(tmp_path):
    path = tmp_path / "data.csv"
    path.write_bytes(b"label,e0\n0,\xff\xfe\n")
    load_dataset_csv(str(path))


def _gen_synth_spec_not_json(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text("{not json", encoding="utf-8")
    return main(["gen-synth", "--spec", str(spec), "--out", str(tmp_path / "out")])


ADD_WITHOUT_SPEC = {"event": "add_model", "name": "m0", "classes": [0], "weight_millionths": 1}


def _add_event(**changes):
    return dict(ADD_WITHOUT_SPEC, spec=_spec_dict(), **changes)


CASES = [
    pytest.param(_schedule("x"), id="schedule-string-event-AttributeError"),
    pytest.param(_schedule({"event": "observe"}), id="schedule-observe-without-count-KeyError"),
    pytest.param(_schedule(ADD_WITHOUT_SPEC), id="schedule-add-without-spec-KeyError"),
    pytest.param(_schedule({"event": "observe", "per_class": "zz"}),
                 id="schedule-text-count-ValueError"),
    pytest.param(_schedule({"event": "observe", "per_class": 2.5}),
                 id="schedule-count-2.5-read-as-2"),
    pytest.param(_schedule({"event": "observe", "per_class": 0}),
                 id="schedule-count-0-accepted-until-applied"),
    pytest.param(_schedule(_add_event(classes=[0.5])), id="schedule-class-0.5-read-as-0"),
    pytest.param(_schedule(_add_event(weight_millionths=2.5)),
                 id="schedule-weight-2.5-millionths-read-as-2"),
    pytest.param(_spec(length="zz"), id="spec-text-length-ValueError"),
    pytest.param(_spec(specialization=[[0]]), id="spec-one-element-pair-ValueError"),
    pytest.param(_spec(classes=[0.5, 1.9]), id="spec-classes-0.5-1.9-read-as-0-1"),
    pytest.param(_spec(classes=[True, False]), id="spec-classes-true-false-read-as-1-0"),
    pytest.param(_spec(seed="7"), id="spec-text-seed-read-as-7"),
    pytest.param(_spec(length=8.0), id="spec-length-8.0-read-as-8"),
    pytest.param(_container(_hil, "encoder", num_levels=5.9), id="hil-levels-5.9-read-as-5"),
    pytest.param(_container(_session, "config", test_per_class="40"),
                 id="session-text-test-per-class-read-as-40"),
    pytest.param(_csv_not_utf8, id="csv-not-utf8-UnicodeDecodeError"),
    pytest.param(_gen_synth_spec_not_json, id="cli-gen-synth-spec-not-json-JSONDecodeError"),
    pytest.param(lambda tmp_path: ConsensusAccumulator(64, SeedContext(0, "t", 0))
                 .load_state_bytes(struct.pack("<IqQ", 5, 0, 0)),
                 id="tally-dim-5-InvalidDimensionError"),
]


@pytest.mark.parametrize("feed", CASES)
def test_outside_input_raises_data_format_error(feed, tmp_path, capsys):
    if feed is _gen_synth_spec_not_json:
        # The command line reports the error and exits 1, without a traceback.
        assert feed(tmp_path) == 1
        assert capsys.readouterr().err.startswith("hdglue: error:")
        return
    with pytest.raises(DataFormatError):
        feed(tmp_path)


CONFIG_CASES = [
    pytest.param(lambda: EncoderConfig(length=4, num_levels=5.5), id="levels-5.5-TypeError-later"),
    pytest.param(lambda: EncoderConfig(length=4, num_levels="x"), id="levels-text-TypeError"),
    pytest.param(lambda: EncoderConfig(length=4, seed="x"), id="seed-text-TypeError"),
    pytest.param(lambda: EncoderConfig(length=True), id="length-True-accepted"),
    pytest.param(lambda: OnlineConfig(test_per_class=2.5), id="test-per-class-2.5-TypeError-later"),
    pytest.param(lambda: SyntheticNetworkSpec((0, 1), 4, np.zeros((2, 4)), 1.0, seed="7"),
                 id="spec-text-seed-struct.error-later"),
    pytest.param(lambda: SyntheticNetworkSpec((0, 1), 4.0, np.zeros((2, 4)), 1.0),
                 id="spec-length-4.0-accepted"),
    pytest.param(lambda: Observe(2.5), id="observe-2.5-TypeError-later"),
    pytest.param(lambda: AddModel("m0", default_spec(0), classes=(0.5,)),
                 id="add-model-class-0.5-accepted"),
    pytest.param(lambda: ClassRegistry("x", 256), id="registry-text-seed-TypeError-later"),
    pytest.param(lambda: GlueModel(ClassRegistry(0, 256), seed=1.5),
                 id="glue-seed-1.5-TypeError-later"),
    pytest.param(lambda: _fleet(glue_seed="x"), id="fleet-glue-seed-text-refused-on-load"),
    pytest.param(lambda: _fleet(glue_seed=2.7), id="fleet-glue-seed-2.7-resaved-as-2"),
]


def _fleet(**kwargs):
    return fleet_correct(np.zeros((2, 4)), [0, 1], EncoderConfig(length=4, dim=256),
                         ClassRegistry(0, 256), **kwargs)


@pytest.mark.parametrize("make", CONFIG_CASES)
def test_non_integer_config_fields_raise_invalid_value_error(make):
    with pytest.raises(InvalidValueError, match="must be an integer"):
        make()


def test_numpy_integer_config_fields_become_plain_ints():
    # A numpy integer left in a config once failed json.dumps when the model was saved.
    cfg = EncoderConfig(length=np.int32(4), dim=np.int64(256), num_levels=np.uint8(9),
                        seed=np.int64(3))
    model = HILModel.train(np.zeros((2, 4)), [0, 1], cfg, ClassRegistry(3, 256))
    assert model_from_bytes(model_to_bytes(model)).config == cfg
    online = OnlineConfig(dim=np.int64(256), num_levels=np.int8(9), seed=np.uint64(1),
                          test_per_class=np.int64(2))
    assert [type(v) for v in astuple(online)] == [int] * 4


BATCH_ID_CASES = [
    pytest.param([2**63], id="id-2**63-struct.error"),
    pytest.param([0, 2**64], id="id-2**64-struct.error"),
    pytest.param([-2**63 - 1], id="id-below-minus-2**63-struct.error"),
    pytest.param([1.5], id="id-1.5-truncated-to-1"),
    pytest.param([np.float64(2.0)], id="id-numpy-float-truncated"),
    pytest.param([True], id="id-True-read-as-1"),
    pytest.param(range(2**63 - 1, 2**63 + 1), id="range-past-2**63"),
    pytest.param(range(-2**63 + 1, -2**63 - 2, -1), id="descending-range-below-minus-2**63"),
]


@pytest.mark.parametrize("ids", BATCH_ID_CASES)
def test_synthetic_batch_refuses_ids_it_cannot_address(ids):
    with pytest.raises(InvalidValueError):
        default_spec(0).batch("train", 0, ids)


@pytest.mark.parametrize("label", [1.0, True], ids=["label-1.0-read-as-1", "label-True"])
def test_synthetic_batch_refuses_a_non_integer_label(label):
    with pytest.raises(InvalidValueError, match="must be an integer"):
        default_spec(0).batch("train", label, [0])


def test_synthetic_batch_of_no_ids_is_an_empty_matrix():
    # np.stack once raised a bare ValueError here
    spec = default_spec(0)
    rows = spec.batch("test", 1, [])
    assert rows.shape == (0, spec.length) and rows.dtype == np.float32


def test_synthetic_batch_addresses_negative_ids():
    spec = default_spec(0)
    rows = spec.batch("train", 0, [-1, -2**63, 0])
    assert rows.shape == (3, spec.length)
    assert len({row.tobytes() for row in rows}) == 3
    assert rows[0].tobytes() == spec.example("train", 0, -1).tobytes()
