"""Scheduled sessions: arrival protocol, prefix equivalence, snapshots."""

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
from hdglue.data_io import model_from_bytes, model_to_bytes, specialist_specs
from hdglue.online import (
    AddModel,
    Evaluate,
    Observe,
    OnlineConfig,
    OnlineSession,
    history_table_csv,
    schedule_from_json,
    schedule_to_json,
    session_run,
    staged_schedule,
)

SMALL = OnlineConfig(dim=1024, num_levels=17, seed=0, test_per_class=25)


def small_schedule(observe=20):
    return staged_schedule(specialist_specs(0), classes_per_stage=2,
                           observe_per_class=observe)


def batch_rebuild(events, config):
    """Fresh glue trained on exactly the cumulative data of an event prefix."""
    registry = ClassRegistry(config.seed, config.dim)
    glue = GlueModel(registry, seed=config.seed)
    member_specs = {}
    order = []
    intro = []
    next_id = {}
    windows = {}  # member -> class -> list of (start, stop)
    for event in events:
        if isinstance(event, AddModel):
            member_specs[event.name] = (event.spec, event.weight)
            order.append(event.name)
            windows[event.name] = {}
            for c in event.classes:
                intro.append(int(c))
                next_id[int(c)] = 0
        elif isinstance(event, Observe):
            for name in order:
                for c in intro:
                    start = next_id[c]
                    windows[name].setdefault(c, []).append((start, start + event.per_class))
            for c in intro:
                next_id[c] += event.per_class
    for name in order:
        spec, weight = member_specs[name]
        cfg = EncoderConfig(length=spec.length, dim=config.dim,
                            num_levels=config.num_levels, seed=spec.seed)
        model = HILModel(cfg, registry)
        rows, labels = [], []
        for c, spans in sorted(windows[name].items()):
            for start, stop in spans:
                rows.append(spec.batch("train", c, range(start, stop)))
                labels.extend([c] * (stop - start))
        if rows:
            model.update(np.vstack(rows), labels)
        glue.add_model(model, weight=weight, name=name)
    return glue


# -- protocol structure ------------------------------------------------------


def test_single_stage_run_produces_one_history_row():
    spec = specialist_specs(0)[0]
    schedule = [AddModel("m0", spec, classes=(0, 1)), Observe(30), Evaluate(label="s1")]
    session = session_run(schedule, SMALL)
    assert len(session.history) == 1
    row = session.history[0]
    assert row["label"] == "s1"
    assert row["classes"] == [0, 1]
    assert sorted(row["per_class"]) == ["0", "1"]
    values = list(row["per_class"].values())
    assert all(0.0 <= v <= 1.0 for v in values)
    assert row["overall"] == pytest.approx(float(np.mean(values)))


def test_final_state_equals_batch_training_on_cumulative_data():
    schedule = small_schedule()
    session = session_run(schedule, SMALL)
    rebuilt = batch_rebuild(schedule, SMALL)
    assert session.glue.state_digest() == rebuilt.state_digest()


def test_prefix_equivalence_at_three_random_prefixes():
    schedule = small_schedule()
    rng = np.random.default_rng(2026)
    prefixes = sorted(rng.choice(np.arange(1, len(schedule) + 1), size=3, replace=False))
    for p in prefixes:
        session = session_run(schedule[:p], SMALL)
        rebuilt = batch_rebuild(schedule[:p], SMALL)
        assert session.glue.state_digest() == rebuilt.state_digest(), f"prefix {p}"


def test_evaluate_never_mutates_the_glue():
    schedule = small_schedule()[:6]  # two full stages
    session = session_run(schedule, SMALL)
    before = session.glue.state_digest()
    rows_before = len(session.history)
    session.apply(Evaluate(label="again"))
    assert session.glue.state_digest() == before
    assert len(session.history) == rows_before + 1


def test_first_class_decays_gracefully_as_the_crew_grows():
    config = OnlineConfig(dim=4096, num_levels=65, seed=0, test_per_class=100)
    session = session_run(small_schedule(observe=60), config)
    first = [rec["per_class"]["0"] for rec in session.history]
    assert len(first) == 5
    for prev, nxt in zip(first, first[1:]):
        assert nxt <= prev + 0.02
    assert first[-1] <= first[0]


# -- held-out rows, encoded once --------------------------------------------


def uncached_history(schedule, config):
    """The history ``schedule`` should give, with every Evaluate scored by
    ``predict_batch`` on freshly generated held-out rows."""
    session = OnlineSession(config)
    history = []
    for k, event in enumerate(schedule):
        if not isinstance(event, Evaluate):
            session.apply(event)
            continue
        ids = range(config.test_per_class)
        per_class, total = {}, 0
        for c in session.intro_order:
            rows = {n: session.specs[n].batch("test", c, ids)
                    for n in session.glue.active_names()}
            correct = int((session.glue.predict_batch(rows)[0] == c).sum())
            per_class[str(c)] = correct / config.test_per_class
            total += correct
        evaluations = sum(isinstance(e, Evaluate) for e in schedule[:k + 1])
        history.append({
            "label": event.label or f"eval{evaluations}",
            "after_events": k + 1,
            "classes": list(session.intro_order),
            "per_class": per_class,
            "overall": total / (len(session.intro_order) * config.test_per_class),
        })
    return history


def mixed_schedule():
    """Three staged members with repeat and unlabelled Evaluates, one of them
    while the newest member is still untrained."""
    specs = specialist_specs(0, n_models=3, n_classes=6)
    staged = staged_schedule(specs, classes_per_stage=2, observe_per_class=12)
    return (staged[:3] + [Evaluate()] + staged[3:4] + [Evaluate()] + staged[4:]
            + [Observe(5), Evaluate(), Evaluate(label="again")])


@pytest.mark.parametrize("dim", [130, 1000])
def test_evaluate_on_stored_words_gives_the_uncached_history(dim):
    config = OnlineConfig(dim=dim, num_levels=9, seed=1, test_per_class=15)
    schedule = mixed_schedule()
    session = session_run(schedule, config)
    assert session.history == uncached_history(schedule, config)
    assert [rec["label"] for rec in session.history] == [
        "stage1", "eval2", "eval3", "stage2", "stage3", "eval6", "again"]


@pytest.mark.parametrize("dim", [130, 1000])
def test_session_loaded_mid_schedule_refills_and_matches_the_live_run(dim):
    config = OnlineConfig(dim=dim, num_levels=9, seed=1, test_per_class=15)
    schedule = mixed_schedule()
    live = OnlineSession(config)
    for k, event in enumerate(schedule):
        if k == 7:  # three Evaluates in, two members seated
            blob = model_to_bytes(live)
        live.apply(event)
    resumed = model_from_bytes(blob)
    resumed.run(schedule[7:])
    assert resumed.history == live.history
    assert model_to_bytes(resumed) == model_to_bytes(live)
    assert resumed.state_digest() == live.state_digest()


def test_stored_held_out_words_never_reach_the_container():
    session = session_run(small_schedule()[:6], SMALL)
    blob = model_to_bytes(session)
    glue_blob = model_to_bytes(session.glue)
    session.apply(Evaluate(label="again"))
    assert model_to_bytes(session.glue) == glue_blob
    fresh = model_from_bytes(blob)  # nothing encoded yet
    fresh.apply(Evaluate(label="again"))
    assert model_to_bytes(fresh) == model_to_bytes(session)


def test_evaluate_encodes_no_held_out_rows_for_an_untrained_member():
    specs = specialist_specs(0, n_models=2, n_classes=4)
    schedule = [AddModel("m0", specs[0], classes=(0, 1)), Observe(10),
                AddModel("m1", specs[1], classes=(2, 3)), Evaluate()]
    config = OnlineConfig(dim=1000, num_levels=9, seed=1, test_per_class=15)
    session = session_run(schedule, config)
    assert session.glue.member("m1").vector is None
    assert sorted(session._held_out) == [("m0", c) for c in range(4)]
    assert session.history == uncached_history(schedule, config)


def test_a_seat_answering_through_another_encoder_is_encoded_anew():
    # A composite folded under a member's name answers through the heaviest
    # folded member's encoder, so that name's held-out rows encode differently.
    specs = specialist_specs(0, n_models=2, n_classes=4)
    schedule = [AddModel("m0", specs[0], classes=(0, 1)),
                AddModel("m1", specs[1], classes=(2, 3), weight=2.0),
                Observe(10), Evaluate()]
    session = session_run(schedule, SMALL)
    session.glue.compress(["m0", "m1"], 3.0, name="m0")
    rows = {"m0": np.vstack([specs[0].batch("test", c, range(SMALL.test_per_class))
                             for c in range(4)])}
    picks = session.glue.predict_batch(rows)[0].reshape(4, -1)
    session.apply(Evaluate())
    assert session.history[1]["per_class"] == {
        str(c): int((picks[c] == c).sum()) / SMALL.test_per_class for c in range(4)}


# -- snapshots ---------------------------------------------------------------


def test_snapshot_roundtrip_is_byte_stable():
    session = session_run(small_schedule()[:7], SMALL)
    blob = model_to_bytes(session)
    restored = model_from_bytes(blob)
    assert isinstance(restored, OnlineSession)
    assert restored.state_digest() == session.state_digest()
    assert model_to_bytes(restored) == blob


def test_restored_session_continues_identically():
    schedule = small_schedule()
    uninterrupted = session_run(schedule, SMALL)
    head = session_run(schedule[:7], SMALL)
    resumed = model_from_bytes(model_to_bytes(head))
    for event in schedule[7:]:
        resumed.apply(event)
    assert resumed.state_digest() == uninterrupted.state_digest()
    assert resumed.history == uninterrupted.history


# -- schedule files ----------------------------------------------------------


def test_schedule_json_roundtrip_is_exact():
    schedule = small_schedule(observe=50)
    text = schedule_to_json(schedule)
    back = schedule_from_json(text)
    assert back == schedule
    assert schedule_to_json(back) == text


def test_heavy_member_weight_survives_the_schedule_file_exactly():
    spec = specialist_specs(0)[0]
    heavy = 4_000_000_000_001  # votes; past float precision in millionths
    schedule = [AddModel("m0", spec, classes=spec.classes[:2], weight=heavy),
                Observe(5), Evaluate()]
    back = schedule_from_json(schedule_to_json(schedule))
    assert back[0].weight == heavy
    live = session_run(schedule, SMALL)
    replayed = session_run(back, SMALL)
    assert replayed.glue.member("m0").weight == heavy * 1_000_000
    assert replayed.state_digest() == live.state_digest()


def test_schedule_json_rejects_malformed_documents():
    with pytest.raises(DataFormatError):
        schedule_from_json("{")
    with pytest.raises(DataFormatError):
        schedule_from_json("{}")
    with pytest.raises(DataFormatError):
        schedule_from_json('[{"event": "warp"}]')


# -- sequencing guards -------------------------------------------------------


def test_events_out_of_order_are_refused():
    spec = specialist_specs(0)[0]
    with pytest.raises(InvalidValueError):
        session_run([Observe(10)], SMALL)
    with pytest.raises(InvalidValueError):
        session_run([Evaluate()], SMALL)
    with pytest.raises(InvalidValueError):
        session_run([AddModel("m0", spec, classes=(0,)), Observe(0)], SMALL)


def test_duplicate_names_and_reintroduced_classes_are_refused():
    spec = specialist_specs(0)[0]
    other = specialist_specs(0)[1]
    with pytest.raises(InvalidValueError):
        session_run([AddModel("m0", spec, classes=(0,)),
                     AddModel("m0", other, classes=(2,))], SMALL)
    with pytest.raises(InvalidValueError):
        session_run([AddModel("m0", spec, classes=(0,)),
                     AddModel("m1", other, classes=(0,))], SMALL)
    with pytest.raises(InvalidValueError):
        session_run([AddModel("m0", spec, classes=(77,))], SMALL)


def test_online_config_validation():
    with pytest.raises(InvalidValueError):
        OnlineConfig(test_per_class=0)


# -- reporting ---------------------------------------------------------------


def test_history_csv_is_a_class_by_stage_grid():
    session = session_run(small_schedule(), SMALL)
    text = history_table_csv(session.history)
    lines = text.strip().split("\n")
    assert lines[0] == "class," + ",".join(f"stage{i}" for i in range(1, 6))
    assert len(lines) == 1 + 10 + 1
    first = lines[1].split(",")
    assert first[0] == "0" and all(cell for cell in first[1:])
    last_class = lines[10].split(",")
    assert last_class[0] == "9"
    assert last_class[1:5] == ["", "", "", ""] and last_class[5]
    overall = lines[11].split(",")
    assert overall[0] == "all"
    assert [float(x) for x in overall[1:]] == pytest.approx(
        [rec["overall"] for rec in session.history], abs=5e-5)
