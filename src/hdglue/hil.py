"""Hypervector inference layer: training and prediction over encoded signals.

Each class keeps an exact vote accumulator over the encoded examples seen
for it; its bundle is the accumulator's majority readout. The bundles are
bound to symbolic class IDs, and the classification vector is the majority
of those terms, re-read whenever a class moves. Because each class tally
is exact and the vector is derived from the tallies alone, feeding
examples one at a time, in any order, lands on the same model bit for bit
as one batch call.

Class IDs come from a registry keyed by (seed, dim) so separately trained
models agree on what each label's symbol looks like. That shared symbol
space is what lets their classification vectors be fused later.
"""

from __future__ import annotations

from types import MappingProxyType

import numpy as np

from . import _kernels
from .bundling import ConsensusAccumulator, majority
from .encoding import EncoderConfig, SignalEncoder
from .errors import (
    DimensionMismatchError,
    InvalidValueError,
    UntrainedModelError,
)
from .hv import Hypervector, SeedContext, check_dim, check_int, check_words, num_words, random_hv

__all__ = ["ClassRegistry", "HILModel", "probe"]


class ClassRegistry:
    """Shared map from integer labels to symbolic ID hypervectors.

    Two registries with equal (seed, dim) produce identical IDs, so models
    meant to be fused only have to agree on those two numbers.
    """

    def __init__(self, seed: int, dim: int):
        self.seed = check_int("seed", seed)
        self.dim = check_dim(dim)
        self._ids: dict[int, Hypervector] = {}

    def id_for(self, label: int) -> Hypervector:
        label = check_int("label", label)
        if label < 0:
            raise InvalidValueError(f"labels must be non-negative, got {label}")
        hv = self._ids.get(label)
        if hv is None:
            hv = random_hv(SeedContext(self.seed, "class", label), self.dim)
            self._ids[label] = hv
        return hv

    def id_words(self, labels) -> np.ndarray:
        """Stacked packed words for a label list, row per label."""
        out = np.empty((len(labels), num_words(self.dim)), dtype=np.uint64)
        for i, lab in enumerate(labels):
            out[i] = self.id_for(lab).words
        return out

    def compatible_with(self, other: "ClassRegistry") -> bool:
        return self.seed == other.seed and self.dim == other.dim

    def __eq__(self, other):
        if not isinstance(other, ClassRegistry):
            return NotImplemented
        return self.compatible_with(other)

    def __repr__(self):
        return f"ClassRegistry(seed={self.seed}, dim={self.dim})"


class HILModel:
    """One trained classifier over encoded signal vectors.

    State is a per-class accumulator; ``classification_vector`` is the
    majority of the ID-bound class bundles and the only piece another model
    ever needs at fusion time.
    """

    def __init__(self, config: EncoderConfig, registry: ClassRegistry, *,
                 _encoder: SignalEncoder | None = None):
        # ``_encoder`` lets models of one config share an encoder (fleet rounds).
        if registry.dim != config.dim:
            raise DimensionMismatchError(
                f"registry dim {registry.dim} vs encoder dim {config.dim}"
            )
        self.config = config
        self.registry = registry
        self.encoder = SignalEncoder(config) if _encoder is None else _encoder
        self.class_accumulators: dict[int, ConsensusAccumulator] = {}
        self._bundles: dict[int, Hypervector] = {}
        self.classification_vector: Hypervector | None = None

    # -- training --------------------------------------------------------

    @classmethod
    def train(cls, rows, labels, config: EncoderConfig, registry: ClassRegistry) -> "HILModel":
        model = cls(config, registry)
        model.update(rows, labels)
        if model.classification_vector is None:
            raise InvalidValueError("training needs at least one example")
        return model

    def update(self, rows, labels) -> None:
        """Fold more labelled examples in; ``update([], [])`` is a no-op.

        Each class tally moves by how many of its rows set each bit, which
        the encoder counts without packing any row into words.
        """
        q = self.encoder._quantized(rows)
        majority = self.encoder._majority
        self._fold(q.shape[0], labels,
                   lambda acc, idx: acc.add_counts(majority.counts(q[idx]), len(idx)))

    def update_encoded(self, words, labels) -> None:
        """Same as :meth:`update` but from an (n, words) uint64 matrix of
        encoded rows, as :meth:`SignalEncoder.encode_batch` returns."""
        words = check_words(words, self.config.dim)
        self._fold(words.shape[0], labels, lambda acc, idx: acc.add_words(words[idx], 1))

    def _fold(self, n_rows: int, labels, tally) -> None:
        """Add n checked rows under ``labels``: ``tally(acc, idx)`` moves a
        class tally by the rows at ``idx``; then re-read each moved class's
        bundle and the classification vector."""
        # Validate every row and label before the first counter moves.
        if n_rows != len(labels):
            raise InvalidValueError(f"{n_rows} rows vs {len(labels)} labels")
        rows_of: dict[int, list[int]] = {}
        for i, lab in enumerate(labels):
            self.registry.id_for(lab)  # rejects non-integer and negative labels
            rows_of.setdefault(int(lab), []).append(i)
        if not rows_of:
            return
        for lab, idx in rows_of.items():
            tally(self._class_tally(lab), idx)
            self._bundles.pop(lab, None)  # read out again below
        # A class's term is its ID bound to its bundle.
        self.classification_vector = majority(
            [self.registry.id_for(lab) ^ self._bundle(lab) for lab in self.labels()],
            random_hv(SeedContext(self.config.seed, "tiebreak-fusion", 0), self.config.dim))

    def _class_tally(self, lab: int) -> ConsensusAccumulator:
        """Class ``lab``'s tally, seated empty on first use."""
        acc = self.class_accumulators.get(lab)
        if acc is None:
            acc = self.class_accumulators[lab] = ConsensusAccumulator(
                self.config.dim, SeedContext(self.config.seed, "tiebreak-class", lab))
        return acc

    def _restore(self, class_states: dict[int, bytes], vector: bytes | None) -> None:
        """Load stored tallies and the packed classification vector, if trained,
        into this untrained model; each class bundle waits for its first reader."""
        for lab, state in class_states.items():
            self._class_tally(lab).load_state_bytes(state)
        if vector is not None:
            words = np.frombuffer(vector, dtype="<u8")
            self.classification_vector = Hypervector.from_words(self.config.dim, words)

    def _bundle(self, lab: int) -> Hypervector:
        """Class ``lab``'s bundle, read out of its tally on first use after a load or an update."""
        bundle = self._bundles.get(lab)
        if bundle is None:
            bundle = self._bundles[lab] = self.class_accumulators[lab].finalize()
        return bundle

    @property
    def class_bundles(self) -> MappingProxyType:
        """Each class's bundle, its tally's majority readout."""
        return MappingProxyType({lab: self._bundle(lab) for lab in self.class_accumulators})

    # -- prediction ------------------------------------------------------

    def labels(self) -> list[int]:
        return sorted(self.class_accumulators)

    @property
    def example_counts(self) -> MappingProxyType:
        """Examples trained per class: each class tally's term count."""
        return MappingProxyType({k: a.term_count for k, a in self.class_accumulators.items()})

    def _score_words(self, q_words: np.ndarray) -> tuple[list[int], np.ndarray]:
        """Similarity of unbound queries to every trained class ID: (n, C)."""
        if self.classification_vector is None:
            raise UntrainedModelError("model has no trained classes")
        labels = self.labels()
        return labels, _kernels.unbind_similarities(
            q_words, self.classification_vector.words, self.registry.id_words(labels),
            self.config.dim)

    def predict_encoded(self, q: Hypervector) -> tuple[int, dict[int, float]]:
        if q.dim != self.config.dim:
            raise DimensionMismatchError(f"query dim {q.dim} vs model dim {self.config.dim}")
        labels, sims = self._score_words(q.words[None, :])
        # Labels arrive sorted, so the first maximum is the smallest label.
        return labels[int(np.argmax(sims[0]))], dict(zip(labels, sims[0].tolist()))

    def predict(self, values) -> tuple[int, dict[int, float]]:
        """Predicted label and the per-class similarity scores behind it."""
        return self.predict_encoded(self.encoder.encode(values))

    def predict_batch(self, rows) -> tuple[np.ndarray, np.ndarray, list[int]]:
        """(predicted labels, similarity matrix (n, C), class label order)."""
        return self.predict_words(self.encoder.encode_batch(rows))

    def predict_words(self, words) -> tuple[np.ndarray, np.ndarray, list[int]]:
        """Same as :meth:`predict_batch` but from an (n, words) uint64 matrix
        of encoded rows, as :meth:`SignalEncoder.encode_batch` returns."""
        labels, sims = self._score_words(check_words(words, self.config.dim))
        picks = np.asarray(labels, dtype=np.int64)[np.argmax(sims, axis=1)]
        return picks, sims, labels

    # -- bookkeeping -----------------------------------------------------

    def state_digest(self) -> str:
        """BLAKE2b-128 hex of the model's saved bytes: equal digests, equal files."""
        from .data_io import state_digest  # data_io imports this module

        return state_digest(self)

    def __repr__(self):
        return (
            f"HILModel(dim={self.config.dim}, classes={len(self.class_accumulators)}, "
            f"examples={sum(self.example_counts.values())})"
        )


def probe(record: Hypervector, key: Hypervector, candidates) -> tuple[int, float]:
    """Unbind ``key`` from ``record`` and return the nearest candidate.

    Gives (index, similarity); ties go to the lowest index.
    """
    candidates = list(candidates)
    if not candidates:
        raise InvalidValueError("probe needs at least one candidate")
    words = np.stack([c.words for c in candidates])
    sims = _kernels.unbind_similarities((record ^ key).words[None, :], None, words, record.dim)[0]
    best = int(np.argmax(sims))
    return best, sims[best]
