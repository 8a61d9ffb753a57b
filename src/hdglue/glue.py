"""Fusing many trained models into one consensus hypervector.

Each member model contributes one term: its symbolic model ID bound by XOR
to its classification vector, weighted by its vote count. The weighted
consensus of those terms is the glue vector. Because the underlying
accumulator is exact, members can be added, removed, re-added, or updated
in place and the counters land exactly where a fresh build would put them.

Prediction unbinds one member at a time from the glue vector, scores the
member's view of the query against the shared class IDs, and sums the
weighted scores over whichever members are currently available. Only one
member has to recognize the class for the vote to land.

The error fleet stacks corrective training rounds on top: round k trains
only on what rounds 1..k-1 still get wrong, weighted by how much of the
training set it covers times how well it does there. A small exact-recall
memory of stubborn examples can sit in front of the consensus.
"""

from __future__ import annotations

import hashlib

import numpy as np

from . import _kernels
from .bundling import MILLION, ConsensusAccumulator, to_millionths
from .encoding import EncoderConfig
from .errors import (
    DimensionMismatchError,
    InvalidValueError,
    UnknownMemberError,
    UntrainedModelError,
)
from .hil import ClassRegistry, HILModel
from .hv import Hypervector, SeedContext, random_hv

__all__ = ["ErrorFleet", "FleetRound", "GlueMember", "GlueModel", "fleet_correct", "round_weight"]


class GlueMember:
    """One model's seat in the glue: identity, weight, and current vector."""

    __slots__ = ("name", "index", "model_id", "encoder", "hil", "vector", "weight", "active",
                 "labels", "fold_acc")

    def __init__(self, name, index, model_id, encoder, hil, vector, weight, labels,
                 fold_acc=None):
        self.name = name
        self.index = index
        self.model_id = model_id
        self.encoder = encoder
        self.hil = hil
        self.vector = vector
        self.weight = weight  # millionths
        self.active = True
        self.labels = set(labels)
        self.fold_acc = fold_acc

    def __repr__(self):
        state = "active" if self.active else "removed"
        return f"GlueMember({self.name!r}, weight={self.weight / MILLION:g}, {state})"


class GlueModel:
    """Weighted consensus over member models sharing one class registry."""

    def __init__(self, registry: ClassRegistry, seed: int = 0):
        self.registry = registry
        self.dim = registry.dim
        self.seed = seed
        self.members: dict[str, GlueMember] = {}
        self._next_index = 0
        self._fusion = ConsensusAccumulator(self.dim, SeedContext(seed, "tiebreak-glue", 0))
        self._glue_vector: Hypervector | None = None

    @classmethod
    def build(cls, models, weights=None, names=None, seed: int = 0) -> "GlueModel":
        """Glue a list of trained models in one go."""
        models = list(models)
        if not models:
            raise InvalidValueError("cannot glue zero models")
        if weights is None:
            weights = [1.0] * len(models)
        if names is None:
            names = [f"m{i}" for i in range(len(models))]
        if not (len(models) == len(weights) == len(names)):
            raise InvalidValueError("models, weights, and names must align")
        glue = cls(models[0].registry, seed=seed)
        for model, weight, name in zip(models, weights, names):
            glue.add_model(model, weight=weight, name=name)
        return glue

    # -- membership ------------------------------------------------------

    @property
    def glue_vector(self) -> Hypervector:
        """Readout of the fusion tally, cached until the tally changes."""
        if self._glue_vector is None:
            self._glue_vector = self._fusion.finalize()
        return self._glue_vector

    def _fusion_add(self, term: Hypervector, weight: int) -> None:
        self._fusion.add(term, weight / MILLION)
        self._glue_vector = None

    def _fusion_sub(self, term: Hypervector, weight: int) -> None:
        self._fusion.sub(term, weight / MILLION)
        self._glue_vector = None

    def active_names(self) -> list[str]:
        return [m.name for m in self.members.values() if m.active]

    def member(self, name: str) -> GlueMember:
        try:
            return self.members[name]
        except KeyError:
            raise UnknownMemberError(name) from None

    def add_model(self, model: HILModel, weight=1.0, name: str | None = None) -> str:
        """Add a model's term; re-adding a removed member restores it exactly.

        A model with no trained classes takes its seat but contributes no
        term until its first update through :meth:`update_member`. A
        removed composite from :meth:`compress` has no model of its own:
        ``add_model(None, name=...)`` is how it is re-added.
        """
        weight = to_millionths(weight)  # a refused weight changes nothing
        if name is not None and name in self.members:
            member = self.members[name]
            if member.active:
                raise InvalidValueError(f"member name {name!r} already active")
            if member.hil is not model:
                raise InvalidValueError(f"member name {name!r} belongs to a different model")
            member.weight = weight
            if member.vector is not None:
                self._fusion_add(member.model_id ^ member.vector, member.weight)
            member.active = True
            return name
        if not isinstance(model, HILModel):
            raise InvalidValueError(f"expected a HILModel, got {type(model).__name__}")
        if not self.registry.compatible_with(model.registry):
            raise InvalidValueError("model was trained against a different class registry")
        if model.config.dim != self.dim:
            raise DimensionMismatchError(f"model dim {model.config.dim} vs glue dim {self.dim}")
        if name is None:
            name = f"m{self._next_index}"
        if name in self.members:
            raise InvalidValueError(f"member name {name!r} already taken")
        member = self._seat(name, self._next_index, weight, model.labels(), hil=model)
        self._next_index += 1
        if member.vector is not None:
            self._fusion_add(member.model_id ^ member.vector, member.weight)
        return name

    def remove_model(self, name: str) -> None:
        """Withdraw a member's term; its seat is kept for exact re-adding."""
        member = self.member(name)
        if not member.active:
            raise InvalidValueError(f"member {name!r} already removed")
        if sum(m.active for m in self.members.values()) == 1:
            raise InvalidValueError("cannot remove the only active member")
        if member.vector is not None:
            self._fusion_sub(member.model_id ^ member.vector, member.weight)
        member.active = False

    def update_member(self, name: str, rows, labels) -> None:
        """Feed examples to a live member and swap its term in place."""
        member = self.member(name)
        if not member.active:
            raise InvalidValueError(f"member {name!r} is removed")
        if member.hil is None:
            raise InvalidValueError(f"member {name!r} is a folded composite, cannot update")
        old = member.vector
        member.hil.update(rows, labels)
        new = member.hil.classification_vector
        if old is not None:
            self._fusion_sub(member.model_id ^ old, member.weight)
        self._fusion_add(member.model_id ^ new, member.weight)
        member.vector = new
        member.labels = set(member.hil.labels())

    def compress(self, names, new_weight, name: str | None = None) -> str:
        """Fold several members into one composite seat.

        Their classification vectors merge by weighted consensus; the
        composite answers queries through the encoder of the heaviest
        folded member and replaces the originals outright.
        """
        names = list(names)
        if len(names) < 2:
            raise InvalidValueError("folding needs at least two members")
        if len(set(names)) != len(names):
            raise InvalidValueError("duplicate names in fold set")
        order = {n: i for i, n in enumerate(self.members)}
        picked = []
        for n in names:
            member = self.member(n)
            if not member.active:
                raise InvalidValueError(f"cannot fold removed member {n!r}")
            if member.vector is None:
                raise InvalidValueError(f"cannot fold untrained member {n!r}")
            picked.append(member)
        weight = to_millionths(new_weight)
        index = self._next_index
        if name is None:
            name = f"fold{index}"
        if name in self.members and name not in names:
            raise InvalidValueError(f"member name {name!r} already taken")

        # Every check has passed; nothing was changed before this point.
        self._next_index += 1
        fold_acc = self._fold_tally(index)
        for member in picked:
            if member.fold_acc is not None:
                # A composite re-opens its stored tallies (original fold
                # votes); ties rebase onto the new composite's context.
                fold_acc.counters += member.fold_acc.counters
                fold_acc.total_weight += member.fold_acc.total_weight
                fold_acc.term_count += member.fold_acc.term_count
            else:
                fold_acc.add(member.vector, member.weight / MILLION)
        # Heaviest member keeps answering; earliest seat breaks weight ties.
        designated = min(picked, key=lambda m: (-m.weight, order[m.name]))

        for member in picked:
            self._fusion_sub(member.model_id ^ member.vector, member.weight)
            del self.members[member.name]
        composite = self._seat(name, index, weight, set().union(*(m.labels for m in picked)),
                               encoder=designated.encoder, fold_acc=fold_acc)
        self._fusion_add(composite.model_id ^ composite.vector, composite.weight)
        return name

    def _fold_tally(self, index: int, state: bytes | None = None) -> ConsensusAccumulator:
        """Composite seat ``index``'s tally of folded votes, loaded from ``state`` if given."""
        acc = ConsensusAccumulator(self.dim, SeedContext(self.seed, "tiebreak-fold", index))
        if state is not None:
            acc.load_state_bytes(state)
        return acc

    def _seat(self, name, index, weight, labels, hil=None, encoder=None, fold_acc=None,
              active=True) -> GlueMember:
        """Seat a member model, or a composite's ``fold_acc``, under its seeded
        model ID; the caller adds its term to the fusion tally."""
        vector = hil.classification_vector if fold_acc is None else fold_acc.finalize()
        member = self.members[name] = GlueMember(
            name, index, random_hv(SeedContext(self.seed, "model", index), self.dim),
            hil.encoder if encoder is None else encoder, hil, vector, weight, labels, fold_acc)
        member.active = active
        return member

    def _restore(self, next_index: int, fusion_state: bytes) -> None:
        """Finish loading a stored glue whose seats are in place: the fusion tally."""
        self._next_index = next_index
        self._fusion.load_state_bytes(fusion_state)

    # -- prediction ------------------------------------------------------

    def class_labels(self) -> list[int]:
        labels = set()
        for member in self.members.values():
            if member.active:
                labels.update(member.labels)
        return sorted(labels)

    def _available(self, available) -> list[GlueMember]:
        if available is None:
            picked = [m for m in self.members.values() if m.active]
        else:
            picked = []
            seen = set()
            for n in available:
                if n in seen:
                    raise InvalidValueError(f"member {n!r} listed twice")
                seen.add(n)
                member = self.member(n)
                if not member.active:
                    raise InvalidValueError(f"member {n!r} is removed")
                picked.append(member)
        picked = [m for m in picked if m.vector is not None]
        if not picked:
            raise UntrainedModelError("no trained members available")
        return picked

    def member_similarities(self, embeddings, available=None):
        """Each available member's view of a query batch.

        ``embeddings`` maps member name to that member's value matrix; all
        matrices must agree on the row count. Returns
        (names, labels, sims) with sims shaped (members, rows, classes).
        """
        picked = self._available(available)
        labels = self.class_labels()
        if not labels:
            raise UntrainedModelError("no classes trained")
        glue_words = self.glue_vector.words
        id_words = self.registry.id_words(labels)
        n_rows = None
        sims = None
        for mi, member in enumerate(picked):
            if member.name not in embeddings:
                raise InvalidValueError(f"no embedding supplied for member {member.name!r}")
            rows = np.asarray(embeddings[member.name], dtype=np.float64)
            if rows.ndim != 2:
                raise InvalidValueError(f"member {member.name!r}: expected 2-d rows")
            if n_rows is None:
                n_rows = rows.shape[0]
                sims = np.empty((len(picked), n_rows, len(labels)))
            elif rows.shape[0] != n_rows:
                raise InvalidValueError("members disagree on query count")
            sims[mi] = _kernels.unbind_similarities(
                member.encoder.encode_batch(rows), glue_words ^ member.model_id.words, id_words,
                self.dim)
        names = [m.name for m in picked]
        return names, labels, sims

    def combine(self, names, labels, sims) -> tuple[np.ndarray, np.ndarray]:
        """Weighted score sum over members: (predicted labels, scores (n, C))."""
        weights = np.asarray([self.member(n).weight / MILLION for n in names])
        scores = np.einsum("m,mnc->nc", weights, sims)
        picks = np.asarray(labels, dtype=np.int64)[np.argmax(scores, axis=1)]
        return picks, scores

    def predict_batch(self, embeddings, available=None):
        """(predicted labels (n,), scores (n, C), class label order)."""
        names, labels, sims = self.member_similarities(embeddings, available)
        picks, scores = self.combine(names, labels, sims)
        return picks, scores, labels

    def predict(self, embeddings, available=None) -> tuple[int, dict[int, float]]:
        """One query per member: embeddings maps name to a flat value vector."""
        batch = {n: np.asarray(v, dtype=np.float64)[None, :] for n, v in embeddings.items()}
        picks, scores, labels = self.predict_batch(batch, available)
        return int(picks[0]), dict(zip(labels, scores[0].tolist()))

    # -- bookkeeping -----------------------------------------------------

    def weights(self) -> dict[str, float]:
        return {m.name: m.weight / MILLION for m in self.members.values() if m.active}

    def state_digest(self) -> str:
        h = hashlib.blake2b(digest_size=16)
        h.update(f"{self.seed}:{self.dim}:{self.registry.seed}".encode())
        for name, m in self.members.items():
            vec = m.vector.to_bytes() if m.vector is not None else b"-"
            h.update(f"{name}:{m.index}:{m.weight}:{int(m.active)}".encode())
            h.update(vec)
            if m.hil is not None:
                h.update(m.hil.state_digest().encode())
        h.update(self._fusion.state_bytes())
        return h.hexdigest()

    def __repr__(self):
        n_active = sum(m.active for m in self.members.values())
        return f"GlueModel(dim={self.dim}, members={n_active})"


def round_weight(coverage: float, accuracy: float) -> int:
    """Vote weight of one corrective round in millionths.

    The round covers ``coverage`` of the original training set and gets
    ``accuracy`` of its own subset right; its say is the product.
    """
    for label, v in (("coverage", coverage), ("accuracy", accuracy)):
        if not 0.0 <= v <= 1.0:
            raise InvalidValueError(f"{label} must lie in [0, 1], got {v!r}")
    return round(coverage * accuracy * MILLION)


class FleetRound:
    """One corrective round: its model, weight, and training bookkeeping."""

    __slots__ = ("hil", "weight", "subset_size", "correct", "fleet_accuracy")

    def __init__(self, hil, weight, subset_size, correct, fleet_accuracy):
        self.hil = hil
        self.weight = weight  # millionths
        self.subset_size = subset_size
        self.correct = correct
        self.fleet_accuracy = fleet_accuracy  # training accuracy once this round joined

    def __repr__(self):
        return (
            f"FleetRound(weight={self.weight / MILLION:g}, subset={self.subset_size}, "
            f"fleet_acc={self.fleet_accuracy:.3f})"
        )


class ErrorFleet:
    """Corrective rounds plus optional exact-recall memory over one encoder.

    Scoring: each round's similarity profile is scaled by the round's
    weight and its own confidence margin (plus a one-bit floor so a
    single-round fleet reduces exactly to its base model), then summed.
    The memory, rows of ``memory_words`` (M, words) with their
    ``memory_labels`` (M,), answers first for near-exact matches.
    ``glue_seed`` is the seed given to :func:`fleet_correct`, kept for the
    model file.
    """

    def __init__(self, rounds, glue_seed, memory_words, memory_labels, memory_threshold,
                 label_order):
        self.rounds = rounds
        self.glue_seed = glue_seed
        self.memory_words = memory_words
        self.memory_labels = memory_labels
        memory_words.setflags(write=False)
        self.memory_threshold = memory_threshold
        self.label_order = label_order
        self._encoder = rounds[0].hil.encoder

    @property
    def training_accuracy(self) -> float:
        return self.rounds[-1].fleet_accuracy

    def round_weights(self) -> list[float]:
        return [r.weight / MILLION for r in self.rounds]

    def predict_batch(self, rows) -> tuple[np.ndarray, list[str]]:
        rows = np.asarray(rows, dtype=np.float64)
        if rows.ndim != 2:
            raise InvalidValueError(f"expected a 2-d batch, got shape {rows.shape}")
        n = rows.shape[0]
        q_words = self._encoder.encode_batch(rows)
        picks = np.empty(n, dtype=np.int64)
        provenance = ["memory"] * n
        hit = np.zeros(n, dtype=bool)
        if self.memory_labels.size:
            sims = _kernels.unbind_similarities(q_words, None, self.memory_words,
                                                self._encoder.dim)
            best = np.argmax(sims, axis=1)
            hit = sims[np.arange(n), best] >= self.memory_threshold
            picks[hit] = self.memory_labels[best[hit]]
        rest = np.flatnonzero(~hit)
        if rest.size:
            id_words = self.rounds[0].hil.registry.id_words(self.label_order)
            scores, contrib = _consensus_scores(self.rounds, q_words[rest], id_words)
            picks[rest] = np.asarray(self.label_order)[np.argmax(scores, axis=1)]
            for i, r in zip(rest.tolist(), np.argmax(contrib, axis=0).tolist()):
                provenance[i] = f"round{r + 1}"
        return picks, provenance

    def predict(self, values) -> tuple[int, str]:
        """Predicted label and where the decision came from."""
        picks, provenance = self.predict_batch(np.asarray(values, dtype=np.float64)[None, :])
        return int(picks[0]), provenance[0]

    def __repr__(self):
        return (
            f"ErrorFleet(rounds={len(self.rounds)}, memory={len(self.memory_labels)}, "
            f"train_acc={self.training_accuracy:.3f})"
        )


def _consensus_scores(rounds, q_words: np.ndarray, id_words: np.ndarray):
    """Margin-weighted round scores summed (n, C), and each round's weighted
    score for its own pick (rounds, n)."""
    scores = np.zeros((q_words.shape[0], id_words.shape[0]))
    contrib = np.zeros((len(rounds), q_words.shape[0]))
    for ri, rnd in enumerate(rounds):
        dim = rnd.hil.config.dim
        sims = _kernels.unbind_similarities(
            q_words, rnd.hil.classification_vector.words, id_words, dim)
        weighted = (rnd.weight / MILLION) * (_top_margin(sims) + 1.0 / dim)[:, None] * sims
        scores += weighted
        contrib[ri] = weighted[np.arange(sims.shape[0]), np.argmax(sims, axis=1)]
    return scores, contrib


def _top_margin(sims: np.ndarray) -> np.ndarray:
    """Per-row gap between the best and second-best similarity."""
    if sims.shape[1] < 2:
        return np.zeros(sims.shape[0])
    part = np.partition(sims, sims.shape[1] - 2, axis=1)
    return part[:, -1] - part[:, -2]


def fleet_correct(
    rows,
    labels,
    config: EncoderConfig,
    registry: ClassRegistry,
    max_rounds: int = 8,
    residual_memory: bool = False,
    memory_threshold: float = 0.95,
    glue_seed: int = 0,
) -> ErrorFleet:
    """Train a fleet of corrective rounds on one labelled set.

    Round 1 sees everything; each later round trains only on what the
    fleet so far got wrong. A round that does not raise fleet training
    accuracy is dropped and training stops. With ``residual_memory`` the
    examples still wrong at the end are stored for exact recall.
    ``glue_seed`` changes no round, weight or prediction: it is only kept
    as the fleet's ``glue_seed`` and written to its model file.
    """
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[0] == 0:
        raise InvalidValueError("fleet training needs a non-empty 2-d example matrix")
    if rows.shape[0] != len(labels):
        raise InvalidValueError(f"{rows.shape[0]} rows vs {len(labels)} labels")
    if max_rounds < 1:
        raise InvalidValueError("max_rounds must be at least 1")
    if not 0.0 < memory_threshold <= 1.0:
        raise InvalidValueError("memory_threshold must lie in (0, 1]")
    for lab in labels:
        registry.id_for(lab)  # rejects non-integer and negative labels
    y = np.asarray([int(l) for l in labels], dtype=np.int64)
    n_total = rows.shape[0]
    label_order = sorted(set(y.tolist()))

    shared = HILModel(config, registry)  # donor of the shared encoder
    q_words = shared.encoder.encode_batch(rows)
    id_words = registry.id_words(label_order)

    rounds: list[FleetRound] = []
    wrong = np.arange(n_total)
    fleet_acc = 0.0
    while len(rounds) < max_rounds and wrong.size:
        subset = wrong
        hil = shared if not rounds else HILModel(config, registry, _encoder=shared.encoder)
        hil.update_encoded(q_words[subset], y[subset].tolist())
        sims = _kernels.unbind_similarities(
            q_words[subset], hil.classification_vector.words, id_words, config.dim)
        own_picks = np.asarray(label_order)[np.argmax(sims, axis=1)]
        correct = int((own_picks == y[subset]).sum())
        weight = round_weight(subset.size / n_total, correct / subset.size)
        if weight <= 0:
            break  # the round learned nothing worth a vote
        candidate = FleetRound(hil, weight, int(subset.size), correct, 0.0)
        scores, _ = _consensus_scores(rounds + [candidate], q_words, id_words)
        preds = np.asarray(label_order)[np.argmax(scores, axis=1)]
        acc = float((preds == y).mean())
        if rounds and acc <= fleet_acc:
            break  # discard: the round fails to improve training accuracy
        candidate.fleet_accuracy = acc
        rounds.append(candidate)
        fleet_acc = acc
        new_wrong = np.flatnonzero(preds != y)
        if new_wrong.size == 0 or new_wrong.size >= wrong.size:
            wrong = new_wrong
            break
        wrong = new_wrong

    if not rounds:
        raise UntrainedModelError("first corrective round earned zero weight")

    memory = wrong if residual_memory else wrong[:0]
    return ErrorFleet(rounds, glue_seed, q_words[memory], y[memory], memory_threshold,
                      label_order)
