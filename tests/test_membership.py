"""Membership changes as a state machine.

Any walk of adds, removes, re-adds, member updates, folds and save/load
round trips keeps two invariants:

- after an accepted step, the glue is byte for byte the glue that a fresh
  build of its seats gives: each seat created once, in index order, at the
  weight it holds now, and the removed seats removed at the end;
- a refused step raises a typed ``HDGlueError`` and changes no byte of the
  model file.

After every step the glue vector and each member's classification vector
also equal their references, rebuilt from the tallies (``readouts``).
"""

import math

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from hdglue import ClassRegistry, EncoderConfig, GlueModel, HDGlueError, HILModel
from hdglue.data_io import model_from_bytes, model_to_bytes, specialist_specs

import readouts

DIM = 256
GLUE_SEED = 5
SPECS = specialist_specs(3, n_models=3, n_classes=6)
REGISTRY = ClassRegistry(3, DIM)
FOREIGN = ClassRegistry(4, DIM)
NAMES = ("a", "b", "c")
GOOD_WEIGHTS = st.sampled_from([1, 0.5, 2.0, 1.25])
WEIGHTS = st.one_of(GOOD_WEIGHTS, GOOD_WEIGHTS, st.sampled_from([0, -1.0, math.nan]))


def _chunk(spec, j):
    """Three training rows for each of classes 2j and 2j + 1."""
    classes = (2 * j, 2 * j + 1)
    rows = np.vstack([spec.batch("train", c, range(3 * j, 3 * j + 3)) for c in classes])
    return rows, [c for c in classes for _ in range(3)]


def _one_class(spec):
    """Three training rows of class 5 alone, so members hold odd as well as
    even numbers of classes; with an even number, the classification
    vector's tied bits come from its tiebreak."""
    return spec.batch("train", 5, range(9, 12)), [5] * 3


CHUNKS = [[_chunk(spec, j) for j in range(3)] + [_one_class(spec)] for spec in SPECS]
# A model that no seat holds.
STRANGER = HILModel(
    EncoderConfig(length=SPECS[0].length, dim=DIM, num_levels=9, seed=SPECS[0].seed), REGISTRY
)


def _valid_weight(w) -> bool:
    return not isinstance(w, bool) and math.isfinite(w) and w > 0


class Seat:
    """What the glue should hold for one seat; composites keep their parts."""

    def __init__(self, name, hil, weight, parts=()):
        self.name = name
        self.hil = hil
        self.weight = weight
        self.parts = list(parts)
        self.active = True


class MembershipMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.glue = GlueModel(REGISTRY, seed=GLUE_SEED)
        self.seats: dict[str, Seat] = {}  # in the glue's member order
        self.created: list[Seat] = []  # every seat ever made, by index

    def attempt(self, op, *args, **kwargs):
        """Run one membership call; a refusal must leave every byte alone."""
        before = model_to_bytes(self.glue), self.glue.state_digest()
        try:
            return True, op(*args, **kwargs)
        except HDGlueError:
            assert (model_to_bytes(self.glue), self.glue.state_digest()) == before
            return False, None

    def pick_name(self, data):
        return data.draw(st.sampled_from(list(self.seats) + ["ghost"]))

    def rebuild(self) -> GlueModel:
        fresh = GlueModel(REGISTRY, seed=GLUE_SEED)
        for seat in self.created:
            if seat.parts:
                fresh.compress([p.name for p in seat.parts], seat.weight, name=seat.name)
            else:
                fresh.add_model(seat.hil, weight=seat.weight, name=seat.name)
        for seat in self.seats.values():
            if not seat.active:
                fresh.remove_model(seat.name)
        return fresh

    @initialize(weights=st.lists(GOOD_WEIGHTS, min_size=2, max_size=3))
    def seed_members(self, weights):
        for source, weight in enumerate(weights):
            self.add(source, "trained", weight, None)

    @rule(source=st.integers(0, 2),
          kind=st.sampled_from(["trained", "trained", "untrained", "foreign"]),
          weight=WEIGHTS, name=st.sampled_from((None, None) + NAMES))
    def add(self, source, kind, weight, name):
        spec = SPECS[source]
        cfg = EncoderConfig(length=spec.length, dim=DIM, num_levels=9, seed=spec.seed)
        model = HILModel(cfg, FOREIGN if kind == "foreign" else REGISTRY)
        if kind != "untrained":
            model.update(*CHUNKS[source][0])
        ok, got = self.attempt(self.glue.add_model, model, weight=weight, name=name)
        assert ok == (_valid_weight(weight) and kind != "foreign" and name not in self.seats)
        if ok:
            seat = Seat(got, model, weight)
            self.seats[got] = seat
            self.created.append(seat)

    @rule(data=st.data())
    def remove(self, data):
        name = self.pick_name(data)
        ok, _ = self.attempt(self.glue.remove_model, name)
        n_active = sum(s.active for s in self.seats.values())
        seat = self.seats.get(name)
        assert ok == (seat is not None and seat.active and n_active > 1)
        if ok:
            seat.active = False

    @rule(thing=st.sampled_from([None, "x", 3]), name=st.sampled_from((None, "ghost") + NAMES))
    def add_non_model(self, thing, name):
        if name in self.seats:
            return  # a seat's own name is the readd rule's business
        ok, _ = self.attempt(self.glue.add_model, thing, name=name)
        assert not ok

    # "own" is the seat's model; a composite's is None.
    @rule(data=st.data(), weight=WEIGHTS,
          model=st.sampled_from(["own", "own", "own", STRANGER, None, "x", 3]))
    def readd(self, data, weight, model):
        removed = [n for n, s in self.seats.items() if not s.active]
        if not removed:
            return
        seat = self.seats[data.draw(st.sampled_from(removed))]
        if model == "own":
            model = seat.hil
        ok, _ = self.attempt(self.glue.add_model, model, weight=weight, name=seat.name)
        assert ok == (_valid_weight(weight) and model is seat.hil)
        if ok:
            seat.active = True
            seat.weight = weight

    @rule(data=st.data(), source=st.integers(0, 2), chunk=st.integers(0, 3),
          float_labels=st.booleans())
    def update(self, data, source, chunk, float_labels):
        name = self.pick_name(data)
        rows, labels = CHUNKS[source][chunk]
        if float_labels:
            labels = labels[:-1] + [labels[-1] + 0.5]
        ok, _ = self.attempt(self.glue.update_member, name, rows, labels)
        seat = self.seats.get(name)
        assert ok == (seat is not None and seat.active and not seat.parts and not float_labels)

    @rule(data=st.data(), weight=WEIGHTS, name=st.sampled_from((None, None) + NAMES))
    def compress(self, data, weight, name):
        pool = list(self.seats) + ["ghost"]
        names = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3, unique=True))
        ok, got = self.attempt(self.glue.compress, names, weight, name=name)
        if ok:
            parts = [self.seats.pop(n) for n in names]
            assert all(p.active and (p.parts or p.hil.classification_vector is not None)
                       for p in parts)
            assert _valid_weight(weight)
            seat = Seat(got, None, weight, parts)
            self.seats[got] = seat
            self.created.append(seat)

    @rule()
    def save_and_load(self):
        blob = model_to_bytes(self.glue)
        loaded = model_from_bytes(blob)
        assert model_to_bytes(loaded) == blob
        assert loaded.state_digest() == self.glue.state_digest()
        self.glue = loaded
        for seat in self.seats.values():
            if not seat.parts:
                seat.hil = loaded.member(seat.name).hil

    @invariant()
    def matches_a_fresh_build(self):
        fresh = self.rebuild()
        assert list(fresh.members) == list(self.glue.members) == list(self.seats)
        assert fresh.state_digest() == self.glue.state_digest()
        assert fresh.glue_vector == self.glue.glue_vector
        assert model_to_bytes(fresh) == model_to_bytes(self.glue)

    @invariant()
    def readouts_match_their_references(self):
        assert self.glue.glue_vector == readouts.glue_tally(self.glue).finalize()
        for member in self.glue.members.values():
            if member.hil is not None and member.hil.labels():
                vector = member.hil.classification_vector
                assert vector == member.vector == readouts.classification_vector(member.hil)


TestMembership = MembershipMachine.TestCase
TestMembership.settings = settings(max_examples=40, stateful_step_count=25, deadline=None)
