"""Input from outside the program fails with DataFormatError, never a builtin error.

Each case below once leaked the builtin error named in its id: a schedule,
a source spec, a CSV dataset, or a spec file handed to ``hdglue gen-synth``.
"""

import json

import pytest

from hdglue.cli import main
from hdglue.data_io import SyntheticNetworkSpec, default_spec, load_dataset_csv
from hdglue.errors import DataFormatError
from hdglue.online import schedule_from_json


def _spec_dict(**changes):
    return dict(default_spec(0, n_classes=2, length=8, signature_size=4).to_json_dict(), **changes)


def _schedule(*events):
    return lambda tmp_path: schedule_from_json(json.dumps(list(events)))


def _spec(**changes):
    return lambda tmp_path: SyntheticNetworkSpec.from_json_dict(_spec_dict(**changes))


def _csv_not_utf8(tmp_path):
    path = tmp_path / "data.csv"
    path.write_bytes(b"label,e0\n0,\xff\xfe\n")
    load_dataset_csv(str(path))


def _gen_synth_spec_not_json(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text("{not json", encoding="utf-8")
    return main(["gen-synth", "--spec", str(spec), "--out", str(tmp_path / "out")])


ADD_WITHOUT_SPEC = {"event": "add_model", "name": "m0", "classes": [0], "weight_millionths": 1}

CASES = [
    pytest.param(_schedule("x"), id="schedule-string-event-AttributeError"),
    pytest.param(_schedule({"event": "observe"}), id="schedule-observe-without-count-KeyError"),
    pytest.param(_schedule(ADD_WITHOUT_SPEC), id="schedule-add-without-spec-KeyError"),
    pytest.param(_schedule({"event": "observe", "per_class": "zz"}),
                 id="schedule-text-count-ValueError"),
    pytest.param(_spec(length="zz"), id="spec-text-length-ValueError"),
    pytest.param(_spec(specialization=[[0]]), id="spec-one-element-pair-ValueError"),
    pytest.param(_csv_not_utf8, id="csv-not-utf8-UnicodeDecodeError"),
    pytest.param(_gen_synth_spec_not_json, id="cli-gen-synth-spec-not-json-JSONDecodeError"),
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
