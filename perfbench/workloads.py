"""The workloads: their inputs, one replay, the query paths and the checks.

Every workload drives hdglue through its public API at D = 10,000. The
seed only chooses the generated inputs; sizes are fixed, so every seed does
the same amount of work (but see FleetTrain's round count). ``small=True``
shrinks the row counts for the benchmark's own tests.

A workload's ``replay`` is its whole scripted job and returns the seconds
spent training plus the state the checks read. The query methods answer
from the model the first replay built (``serve``).
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import replace

import numpy as np

import hdglue
from hdglue import ClassRegistry, EncoderConfig, HILModel, data_io
from hdglue.data_io import default_spec, specialist_specs
from hdglue.online import (
    AddModel, Observe, OnlineConfig, OnlineSession, session_run, staged_schedule,
)

import checks

DIM = 10_000
LEVELS = 65
N_MODELS = 5
N_CLASSES = 10


def _sample(n: int, k: int) -> np.ndarray:
    return np.linspace(0, n - 1, num=min(n, k)).astype(np.int64)


def _batch(i: int, size: int, n: int) -> slice:
    """The i-th fixed-size batch of n rows, wrapping around."""
    lo = (i * size) % n
    return slice(lo, min(lo + size, n))


class FleetTrain:
    """fleet_correct with residual memory on 256-component signals, then queries."""

    name = "fleet-train"
    length = 256
    # At noise 6.0, 59 of seeds 0-59 keep all max_rounds rounds (seed 16
    # keeps one), so nearly every seed does the same work. The round count
    # is reported by the traced run, not checked.
    noise = 6.0
    max_rounds = 4

    def __init__(self, seed: int, small: bool = False):
        self.seed = seed
        n_train, n_test = (40, 10) if small else (100, 50)
        self.batch_rows = 50 if small else 100
        spec = default_spec(seed, n_classes=N_CLASSES, length=self.length,
                            signature_size=self.length, noise=self.noise)
        train = spec.dataset("train", n_train)
        self.rows, self.labels = train.values, train.labels
        self.test = spec.dataset("test", n_test).values
        self.config = EncoderConfig(length=self.length, dim=DIM, num_levels=LEVELS, seed=seed)
        self.train_rows = len(self.labels)

    def replay(self, span=None, record=False):
        """fleet_correct over the training rows, the fleet saved, every held-out row answered."""
        t0 = time.perf_counter()
        fleet = hdglue.fleet_correct(
            self.rows, self.labels.tolist(), self.config, ClassRegistry(self.seed, DIM),
            max_rounds=self.max_rounds, residual_memory=True, glue_seed=self.seed,
        )
        train_s = time.perf_counter() - t0
        blob = data_io.model_to_bytes(fleet)
        picks, provenance = fleet.predict_batch(self.test)
        return train_s, {"fleet": fleet, "blob": blob, "picks": picks, "provenance": provenance}

    def serve(self, state) -> None:
        self.fleet = state["fleet"]

    def query_batch(self, i: int) -> int:
        rows = self.test[_batch(i, self.batch_rows, len(self.test))]
        self.fleet.predict_batch(rows)
        return len(rows)

    def query_one(self, i: int) -> None:
        self.fleet.predict(self.test[i % len(self.test)])

    def cold(self, blob: bytes, i: int) -> None:
        data_io.model_from_bytes(blob).predict(self.test[i % len(self.test)])

    def probe(self):
        return self.fleet.rounds[0].hil.encoder, self.rows

    def verify(self, state) -> dict[str, bool]:
        fleet = state["fleet"]
        train_picks, _ = fleet.predict_batch(self.rows)
        restored = data_io.model_from_bytes(state["blob"])
        r_picks, r_provenance = restored.predict_batch(self.test)
        return {
            "round_weights_match_counts": checks.round_weights_match(fleet.rounds, self.train_rows),
            "kept_rounds_improve": checks.strictly_increasing(
                [r.fleet_accuracy for r in fleet.rounds]),
            "training_recall_is_total": bool(np.array_equal(train_picks, self.labels)),
            "restored_fleet_answers_alike": (
                np.array_equal(r_picks, state["picks"]) and r_provenance == state["provenance"]
            ),
        }


class OnlineReplay:
    """The staged online schedule, then each member removed, queried around, re-added.

    The queries after the replay are the fused serving path: batches and
    single queries through the final five-member glue, every member's view
    in every query.
    """

    name = "online-replay"
    classes_per_stage = 2
    # Distinct member weights, so a swapped weight changes the fused scores.
    weights = (1.0, 1.25, 1.5, 1.75, 2.0)

    def __init__(self, seed: int, small: bool = False):
        self.seed = seed
        self.observe, held_out, churn = (10, 8, 4) if small else (60, 40, 20)
        self.batch_rows = 20 if small else 100
        specs = specialist_specs(seed=seed, n_models=N_MODELS, n_classes=N_CLASSES)
        schedule = staged_schedule(specs, classes_per_stage=self.classes_per_stage,
                                   observe_per_class=self.observe)
        adds = iter(self.weights)
        self.schedule = [replace(e, weight=next(adds)) if isinstance(e, AddModel) else e
                         for e in schedule]
        self.config = OnlineConfig(dim=DIM, num_levels=LEVELS, seed=seed,
                                   test_per_class=held_out)
        # Snapshot after the third stage's Observe: three members, six classes.
        self.mid = 8
        self.names = [f"m{k}" for k in range(N_MODELS)]
        queries = [s.dataset("test", churn, start_id=held_out) for s in specs]
        self.views = {n: d.values for n, d in zip(self.names, queries)}
        self.labels = queries[0].labels
        self.train_rows = self._observed_rows()

    def _observed_rows(self) -> int:
        members = classes = rows = 0
        for event in self.schedule:
            if isinstance(event, Observe):
                rows += members * classes * event.per_class
            elif isinstance(event, AddModel):
                members += 1
                classes += len(event.classes)
        return rows

    def rows_seen(self, name: str):
        """Every training row the schedule hands member ``name``, with labels.

        Rebuilt from the schedule alone: each Observe gives every seated
        member the next ``per_class`` example ids of every introduced class.
        """
        spec, next_id, rows, labels = None, {}, [], []
        for event in self.schedule:
            if isinstance(event, AddModel):
                next_id.update(dict.fromkeys(event.classes, 0))
                if event.name == name:
                    spec = event.spec
            elif isinstance(event, Observe):
                for c in next_id:
                    ids = range(next_id[c], next_id[c] + event.per_class)
                    if spec is not None:
                        rows.append(spec.batch("train", c, ids))
                        labels += [c] * event.per_class
                    next_id[c] = ids.stop
        return np.vstack(rows), np.asarray(labels), spec

    def replay(self, span=None, record=False):
        """Apply the schedule, then churn every member once.

        The session is saved after ``mid`` events. With ``record`` the
        state also carries what the checks need: the digest after ``mid``
        events, the final digest, and whether each remove and re-add
        restored the glue's digest. Digests are not part of the job, so only
        an untimed replay records.
        """
        span = span or (lambda name: contextlib.nullcontext())
        session = OnlineSession(self.config)
        rec = {} if record else None
        train_s = 0.0
        for k, event in enumerate(self.schedule):
            if k == self.mid:
                blob = data_io.model_to_bytes(session)
                if rec is not None:
                    rec["digest_at_mid"] = session.state_digest()
            t0 = time.perf_counter()
            session.apply(event)
            if isinstance(event, Observe):
                train_s += time.perf_counter() - t0
        if rec is not None:
            rec["final_digest"] = session.state_digest()
            rec["churn_restores"] = []
        glue = session.glue
        for name in list(glue.active_names()):
            before = glue.state_digest() if rec is not None else None
            with span("online.churn"):
                member = glue.member(name)
                weight = member.weight / 1_000_000
                glue.remove_model(name)
                glue.predict_batch({n: self.views[n] for n in glue.active_names()})
                glue.add_model(member.hil, weight=weight, name=name)
            if rec is not None:
                rec["churn_restores"].append(glue.state_digest() == before)
        return train_s, {"session": session, "blob": blob, "record": rec}

    def serve(self, state) -> None:
        self.glue = state["session"].glue

    def _row(self, i: int, names) -> dict:
        i %= len(self.labels)
        return {n: self.views[n][i] for n in names}

    def query_batch(self, i: int) -> int:
        rows = _batch(i, self.batch_rows, len(self.labels))
        self.glue.predict_batch({name: v[rows] for name, v in self.views.items()})
        return rows.stop - rows.start

    def query_one(self, i: int) -> None:
        self.glue.predict(self._row(i, self.names))

    def cold(self, blob: bytes, i: int) -> None:
        restored = data_io.model_from_bytes(blob).glue
        restored.predict(self._row(i, restored.active_names()))

    def probe(self):
        return self.glue.member(self.names[0]).encoder, self.rows_seen(self.names[0])[0]

    def verify(self, state) -> dict[str, bool]:
        record, glue = state["record"], state["session"].glue
        members = [glue.member(n) for n in self.names]
        picks, scores, labels = glue.predict_batch(self.views)
        sample = _sample(len(self.labels), 24)
        words = {m.name: np.stack([m.encoder.encode(self.views[m.name][i]).words for i in sample])
                 for m in members}
        rows, row_labels, spec = self.rows_seen(self.names[0])
        order = np.random.default_rng(self.seed).permutation(len(row_labels))
        shuffled = HILModel.train(
            rows[order], row_labels[order].tolist(),
            EncoderConfig(length=spec.length, dim=DIM, num_levels=LEVELS, seed=spec.seed),
            ClassRegistry(self.seed, DIM),
        )
        glue_blob = data_io.model_to_bytes(glue)
        restored = data_io.model_from_bytes(glue_blob)
        r_picks, r_scores, _ = restored.predict_batch(self.views)
        resumed = data_io.model_from_bytes(state["blob"])
        resumed.run(self.schedule[self.mid:])
        return {
            "encode_matches_reference_tally": all(
                checks.encode_matches(m.encoder, self.views[m.name][sample], words[m.name])
                for m in members),
            "fused_scores_match_reference": checks.fused_scores_match(
                glue, self.weights, [words[n] for n in self.names], scores[sample]),
            "single_predict_matches_batch": all(
                checks.single_matches_batch(glue.predict(self._row(i, self.names)),
                                            picks[i], scores[i], labels)
                for i in sample),
            "shuffled_training_same_digest": (
                shuffled.state_digest() == members[0].hil.state_digest()),
            "restored_glue_round_trips": (
                data_io.model_to_bytes(restored) == glue_blob
                and np.array_equal(r_picks, picks) and np.array_equal(r_scores, scores)),
            "resumed_snapshot_reaches_final_digest": (
                resumed.state_digest() == record["final_digest"]),
            "prefix_run_matches_live_digest": prefix_digest_matches(
                self.schedule, self.mid, self.config, record["digest_at_mid"]),
            "remove_and_readd_restore_digest": all(record["churn_restores"]),
            "evaluations_far_above_chance": checks.far_above_chance(state["session"].history),
        }


def prefix_digest_matches(schedule, k: int, config, live_digest: str) -> bool:
    """session_run over the first k events lands on the live digest after k events."""
    return session_run(schedule[:k], config).state_digest() == live_digest


WORKLOADS = {w.name: w for w in (FleetTrain, OnlineReplay)}
