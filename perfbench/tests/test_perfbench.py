"""The benchmark's own tests.

A small run of every workload ends with zero failures and prints exactly
the metrics ``BENCHMARK.json`` names, and each correctness check fails on a
deliberately corrupted output. Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import checks  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)

SEED = 3


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_small_run_passes_and_prints_every_named_metric(workload, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--small"],
        capture_output=True, text=True, cwd=ROOT, timeout=600,
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    named = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in named]
    for m in named:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert isinstance(result["metrics"][m["name"]]["value"], (int, float))


def test_run_outside_a_checkout_fails_without_a_result(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in ("run.py", "workloads.py", "checks.py", "spans.py"):
        (bench / name).write_text(open(os.path.join(BENCH, name)).read())
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "online-replay", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=120,
    )
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout


@pytest.fixture(scope="module")
def online():
    work = workloads.OnlineReplay(SEED, small=True)
    _, state = work.replay(record=True)
    work.serve(state)
    return work, state


def test_encode_check_catches_a_flipped_bit(online):
    work, state = online
    encoder = state["session"].glue.member("m0").encoder
    rows = work.views["m0"][:4]
    words = np.stack([encoder.encode(r).words for r in rows])
    assert checks.encode_matches(encoder, rows, words)
    words[2, 5] ^= np.uint64(1 << 17)
    assert not checks.encode_matches(encoder, rows, words)


def test_fused_score_check_catches_a_swapped_member_weight(online):
    work, state = online
    glue = state["session"].glue
    sample = np.arange(6)
    words = [np.stack([glue.member(n).encoder.encode(work.views[n][i]).words for i in sample])
             for n in work.names]
    views = {n: v[sample] for n, v in work.views.items()}
    assert checks.fused_scores_match(glue, work.weights, words, glue.predict_batch(views)[1])
    a, b = glue.member("m0"), glue.member("m3")
    a.weight, b.weight = b.weight, a.weight
    try:
        swapped = glue.predict_batch(views)[1]
    finally:
        a.weight, b.weight = b.weight, a.weight
    assert not checks.fused_scores_match(glue, work.weights, words, swapped)


def test_round_weight_check_catches_an_altered_weight():
    work = workloads.FleetTrain(SEED, small=True)
    _, state = work.replay()
    rounds = state["fleet"].rounds
    assert checks.round_weights_match(rounds, work.train_rows)
    rounds[-1].weight += 1
    assert not checks.round_weights_match(rounds, work.train_rows)


def test_prefix_digest_check_catches_a_digest_one_event_early():
    work = workloads.OnlineReplay(SEED, small=True)
    session = workloads.OnlineSession(work.config)
    digests = []
    for event in work.schedule[: work.mid]:
        digests.append(session.state_digest())
        session.apply(event)
    live = session.state_digest()
    assert workloads.prefix_digest_matches(work.schedule, work.mid, work.config, live)
    assert not workloads.prefix_digest_matches(
        work.schedule, work.mid, work.config, digests[-1])
