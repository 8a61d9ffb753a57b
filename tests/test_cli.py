"""End-to-end runs of every subcommand through main()."""

import json
import os

import numpy as np
import pytest

from hdglue.cli import main
from hdglue.data_io import load_dataset_binary, load_dataset_csv, load_model, specialist_specs

pytestmark = pytest.mark.usefixtures("tmp_path")


def run(*argv):
    return main([str(a) for a in argv])


def read_json(path):
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


def canon_without_walltime(path):
    doc = read_json(path)
    doc.pop("wall_time_ms")
    doc.pop("timings_ms")
    return json.dumps(doc, sort_keys=True)


def gen(out, seed=0, train=20, test=10, spec=None, csv=False):
    argv = ["gen-synth", "--out", out, "--seed", seed, "--train", train, "--test", test]
    if spec:
        argv += ["--spec", spec]
    if csv:
        argv += ["--csv"]
    assert run(*argv) == 0


# -- data generation ---------------------------------------------------------


def test_gen_synth_writes_loadable_splits(tmp_path):
    out = tmp_path / "data"
    gen(out, seed=3, train=5, test=4)
    train = load_dataset_binary(str(out / "train.hdge"))
    test = load_dataset_binary(str(out / "test.hdge"))
    assert len(train) == 50 and len(test) == 40
    spec_doc = read_json(out / "spec.json")
    assert spec_doc["seed"] == 3
    metrics = read_json(out / "metrics.json")
    assert metrics["command"] == "gen-synth"
    assert metrics["config"]["spec_hash"]


def test_gen_synth_csv_variant_matches_binary(tmp_path):
    gen(tmp_path / "bin", seed=1, train=4, test=3)
    gen(tmp_path / "csv", seed=1, train=4, test=3, csv=True)
    a = load_dataset_binary(str(tmp_path / "bin" / "train.hdge"))
    b = load_dataset_csv(str(tmp_path / "csv" / "train.csv"))
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.labels, b.labels)


# -- train / eval ------------------------------------------------------------


def train_model(tmp_path, name="model.hdgm", seed=0, dim=2000):
    data = tmp_path / "data"
    if not (data / "train.hdge").exists():
        gen(data, seed=seed)
    out = tmp_path / name
    code = run("train", "--data", data / "train.hdge", "--test", data / "test.hdge",
               "--out", out, "--seed", seed, "--dim", dim, "--levels", 65)
    assert code == 0
    return out, data


def test_train_then_eval_reports_accuracy(tmp_path):
    model_path, data = train_model(tmp_path)
    metrics = read_json(str(model_path) + ".metrics.json")
    assert metrics["classes"] == list(range(10))
    assert 0.0 <= metrics["overall_accuracy"] <= 1.0
    code = run("eval", "--model", model_path, "--data", data / "test.hdge",
               "--metrics", tmp_path / "eval.json")
    assert code == 0
    evaled = read_json(tmp_path / "eval.json")
    assert evaled["overall_accuracy"] == metrics["overall_accuracy"]
    assert sorted(evaled["per_class_accuracy"]) == sorted(metrics["per_class_accuracy"])


def test_repeat_runs_are_identical_apart_from_wall_time(tmp_path):
    first, data = train_model(tmp_path, "a.hdgm")
    second, _ = train_model(tmp_path, "b.hdgm")
    assert open(first, "rb").read() == open(second, "rb").read()
    assert (canon_without_walltime(str(first) + ".metrics.json")
            == canon_without_walltime(str(second) + ".metrics.json"))
    for i in (1, 2):
        assert run("eval", "--model", first, "--data", data / "test.hdge",
                   "--metrics", tmp_path / f"e{i}.json") == 0
    assert canon_without_walltime(tmp_path / "e1.json") == canon_without_walltime(tmp_path / "e2.json")


# -- glue --------------------------------------------------------------------


def member_files(tmp_path, dim=2000):
    """Five specialist members trained through the CLI against one registry."""
    models, tests = [], []
    for k, spec in enumerate(specialist_specs(0)):
        spec_path = tmp_path / f"spec{k}.json"
        spec_path.write_text(json.dumps(spec.to_json_dict()))
        data = tmp_path / f"member{k}"
        gen(data, spec=spec_path, train=20, test=10)
        model = tmp_path / f"member{k}.hdgm"
        assert run("train", "--data", data / "train.hdge", "--out", model,
                   "--seed", spec.seed, "--registry-seed", 0, "--dim", dim) == 0
        models.append(model)
        tests.append(data / "test.hdge")
    return models, tests


def test_glue_fuses_and_reports_members(tmp_path):
    models, tests = member_files(tmp_path)
    out = tmp_path / "glue.hdgm"
    code = run("glue", "--models", *models, "--data", *tests, "--out", out,
               "--seed", 0)
    assert code == 0
    metrics = read_json(str(out) + ".metrics.json")
    assert metrics["members"] == [f"m{i}" for i in range(5)]
    assert metrics["classes"] == list(range(10))
    assert 0.0 <= metrics["overall_accuracy"] <= 1.0
    assert sorted(metrics["per_member_scores"]) == [f"m{i}" for i in range(5)]
    assert load_model(str(out)).active_names() == [f"m{i}" for i in range(5)]


def test_glue_drop_runs_with_remaining_members(tmp_path):
    models, tests = member_files(tmp_path)
    out = tmp_path / "four.hdgm"
    code = run("glue", "--models", *models, "--data", *tests, "--out", out,
               "--seed", 0, "--drop", "m1")
    assert code == 0
    metrics = read_json(str(out) + ".metrics.json")
    assert metrics["members"] == ["m0", "m2", "m3", "m4"]
    assert metrics["config"]["dropped"] == ["m1"]
    assert sorted(metrics["per_member_scores"]) == ["m0", "m2", "m3", "m4"]


# -- correct -----------------------------------------------------------------


def test_correct_with_memory_recalls_its_training_set(tmp_path):
    data = tmp_path / "data"
    gen(data, seed=0)
    out = tmp_path / "fleet.hdgm"
    code = run("correct", "--data", data / "train.hdge", "--test", data / "train.hdge",
               "--out", out, "--seed", 0, "--dim", 2000, "--memory")
    assert code == 0
    metrics = read_json(str(out) + ".metrics.json")
    # rounds alone leave residue; memory answers it at predict time
    assert metrics["training_accuracy"] < 1.0
    assert metrics["overall_accuracy"] == 1.0
    assert metrics["memory_decisions"] == metrics["memory_size"] > 0
    assert len(metrics["round_weights"]) == metrics["rounds"]


# -- online-sim --------------------------------------------------------------


def online_args(out, extra=()):
    return ["online-sim", "--out", out, "--seed", 0, "--dim", 1024, "--levels", 17,
            "--models", 3, "--observe", 10, "--test", 10, *extra]


def test_online_sim_writes_schedule_history_and_snapshot(tmp_path):
    out = tmp_path / "run"
    assert run(*online_args(out, ["--snapshot"])) == 0
    for name in ("schedule.json", "history.csv", "metrics.json", "session.hdgm"):
        assert (out / name).exists()
    metrics = read_json(out / "metrics.json")
    assert len(metrics["history"]) == 3
    assert metrics["final_overall_accuracy"] == metrics["history"][-1]["overall"]
    header = (out / "history.csv").read_text().splitlines()[0]
    assert header == "class,stage1,stage2,stage3"


def test_online_sim_replays_a_saved_schedule_identically(tmp_path):
    first = tmp_path / "first"
    assert run(*online_args(first)) == 0
    second = tmp_path / "second"
    assert run(*online_args(second, ["--schedule", first / "schedule.json"])) == 0
    a = read_json(first / "metrics.json")
    b = read_json(second / "metrics.json")
    assert a["state_digest"] == b["state_digest"]
    assert a["history"] == b["history"]


# -- bench -------------------------------------------------------------------


def test_bench_emits_one_row_per_dimension(tmp_path):
    out = tmp_path / "bench.json"
    code = run("bench", "--out", out, "--seed", 0, "--dims", "1000,2000",
               "--train", 10, "--test", 5)
    assert code == 0
    metrics = read_json(out)
    assert sorted(metrics["per_dim"]) == ["1000", "2000"]
    for row in metrics["per_dim"].values():
        assert 0.0 <= row["overall_accuracy"] <= 1.0
        assert row["glue_predict_ms_per_query"] > 0.0


# -- stage timings -----------------------------------------------------------


def stage_timings(path):
    """A metrics file's stage timings, checked to account for its wall time."""
    doc = read_json(path)
    timings = doc["timings_ms"]
    assert sorted(timings) == ["combine", "encode", "load", "save", "score", "train"]
    assert min(timings.values()) >= 0.0
    assert abs(sum(timings.values()) - doc["wall_time_ms"]) <= 0.1 * doc["wall_time_ms"]
    return {k for k, v in timings.items() if v > 0.0}


def test_every_subcommand_reports_stage_timings_that_sum_to_its_wall_time(tmp_path):
    data = tmp_path / "data"
    gen(data, train=20, test=10)
    assert stage_timings(data / "metrics.json") == {"load", "save"}

    models = []
    for seed in (1, 2):
        out = tmp_path / f"m{seed}.hdgm"
        assert run("train", "--data", data / "train.hdge", "--test", data / "test.hdge",
                   "--out", out, "--seed", seed, "--registry-seed", 0, "--dim", 1000) == 0
        assert stage_timings(str(out) + ".metrics.json") == {
            "load", "encode", "train", "score", "save"}
        models.append(out)
    fleet = tmp_path / "fleet.hdgm"
    assert run("correct", "--data", data / "train.hdge", "--test", data / "test.hdge",
               "--out", fleet, "--dim", 1000, "--memory") == 0
    assert stage_timings(str(fleet) + ".metrics.json") == {
        "load", "train", "encode", "score", "save"}
    for model in (models[0], fleet):
        assert run("eval", "--model", model, "--data", data / "test.hdge",
                   "--metrics", tmp_path / "eval.json") == 0
        assert stage_timings(tmp_path / "eval.json") == {"load", "encode", "score"}

    glue = tmp_path / "glue.hdgm"
    assert run("glue", "--models", *models, "--data", data / "test.hdge", data / "test.hdge",
               "--out", glue) == 0
    assert stage_timings(str(glue) + ".metrics.json") == {
        "load", "train", "score", "combine", "save"}

    assert run(*online_args(tmp_path / "run")) == 0
    assert stage_timings(tmp_path / "run" / "metrics.json") == {"load", "train", "score", "save"}

    bench = tmp_path / "bench.json"
    assert run("bench", "--out", bench, "--dims", "1000", "--train", 10, "--test", 5) == 0
    assert stage_timings(bench) == {"load", "encode", "train", "score", "combine"}


# -- exit discipline ---------------------------------------------------------


def test_usage_errors_exit_two():
    with pytest.raises(SystemExit) as exc:
        run("warp-drive")
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run("train")  # missing required arguments
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run("glue", "--models", "m0.hdgm", "--out", "glue.hdgm", "--dim", 2000)  # no such option
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run("bench", "--dims", "1000", "--dim", 2000)  # widths come from --dims only
    assert exc.value.code == 2
    for malformed in (("glue", "--models", "m0.hdgm", "m1.hdgm", "--out", "glue.hdgm",
                       "--weights", "1,x"),
                      ("bench", "--dims", "256,abc")):
        with pytest.raises(SystemExit) as exc:
            run(*malformed)  # a bad list item is a usage error, not a traceback
        assert exc.value.code == 2


def test_module_errors_exit_one(tmp_path):
    assert run("eval", "--model", tmp_path / "missing.hdgm",
               "--data", tmp_path / "missing.hdge") == 1
    junk = tmp_path / "junk.hdgm"
    junk.write_bytes(b"not a container")
    data = tmp_path / "data"
    gen(data, train=2, test=2)
    assert run("eval", "--model", junk, "--data", data / "test.hdge") == 1


def test_version_flag_exits_cleanly(capsys):
    with pytest.raises(SystemExit) as exc:
        run("--version")
    assert exc.value.code == 0
    assert "hdglue" in capsys.readouterr().out
