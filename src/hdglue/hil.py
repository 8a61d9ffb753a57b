"""Hypervector inference layer: training and prediction over encoded signals.

Each class keeps an exact vote accumulator over the encoded examples seen
for it; its bundle is the accumulator's majority readout. The bundles are
bound to symbolic class IDs and fused into a single classification vector
by a second accumulator. Because every stage is an exact tally, feeding
examples one at a time, in any order, lands on the same model bit for bit
as one batch call.

Class IDs come from a registry keyed by (seed, dim) so separately trained
models agree on what each label's symbol looks like. That shared symbol
space is what lets their classification vectors be fused later.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict
from types import MappingProxyType

import numpy as np

from . import _kernels
from .bundling import ConsensusAccumulator
from .encoding import EncoderConfig, SignalEncoder
from .errors import (
    DimensionMismatchError,
    InvalidValueError,
    UntrainedModelError,
)
from .hv import Hypervector, SeedContext, check_dim, num_words, random_hv, tail_mask

__all__ = ["ClassRegistry", "HILModel", "probe"]


class ClassRegistry:
    """Shared map from integer labels to symbolic ID hypervectors.

    Two registries with equal (seed, dim) produce identical IDs, so models
    meant to be fused only have to agree on those two numbers.
    """

    def __init__(self, seed: int, dim: int):
        self.seed = seed
        self.dim = check_dim(dim)
        self._ids: dict[int, Hypervector] = {}

    def id_for(self, label: int) -> Hypervector:
        if isinstance(label, bool) or not isinstance(label, (int, np.integer)):
            raise InvalidValueError(f"labels must be integers, got {label!r}")
        label = int(label)
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


def _argmax_smallest(labels: list[int], scores: np.ndarray) -> int:
    # labels arrive sorted ascending, so the first maximum is the smallest label.
    return labels[int(np.argmax(scores))]


class HILModel:
    """One trained classifier over encoded signal vectors.

    State is a per-class accumulator plus a fusion accumulator of
    ID-bound class bundles; ``classification_vector`` is the fusion
    readout and the only piece another model ever needs at fusion time.
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
        self.class_bundles: dict[int, Hypervector] = {}
        self._fusion = ConsensusAccumulator(
            config.dim, SeedContext(config.seed, "tiebreak-fusion", 0)
        )
        self.classification_vector: Hypervector | None = None

    # -- training --------------------------------------------------------

    @classmethod
    def train(cls, rows, labels, config: EncoderConfig, registry: ClassRegistry) -> "HILModel":
        model = cls(config, registry)
        rows = np.asarray(rows, dtype=np.float64)
        if rows.ndim != 2 or rows.shape[0] == 0:
            raise InvalidValueError("training needs a non-empty 2-d example matrix")
        model.update(rows, labels)
        return model

    def update(self, rows, labels) -> None:
        """Fold more labelled examples in; empty input is a no-op."""
        rows = np.asarray(rows, dtype=np.float64)
        if rows.size == 0:
            return
        if rows.ndim != 2:
            raise InvalidValueError(f"expected a 2-d example matrix, got shape {rows.shape}")
        if rows.shape[0] != len(labels):
            raise InvalidValueError(f"{rows.shape[0]} rows vs {len(labels)} labels")
        self.update_encoded(self.encoder.encode_batch(rows), labels)

    def update_encoded(self, words, labels) -> None:
        """Same as :meth:`update` but from an (n, words) uint64 matrix of
        encoded rows, as :meth:`SignalEncoder.encode_batch` returns."""
        dim = self.config.dim
        words = np.asarray(words)
        if words.dtype != np.uint64 or words.ndim != 2 or words.shape[1] != num_words(dim):
            raise DimensionMismatchError(
                f"expected an (n, {num_words(dim)}) uint64 word matrix for dim {dim}, "
                f"got {words.dtype} of shape {words.shape}"
            )
        if words.shape[0] != len(labels):
            raise InvalidValueError(f"{words.shape[0]} rows vs {len(labels)} labels")
        # Validate every row and label before the first counter moves.
        past_dim = np.flatnonzero(words[:, -1] & ~tail_mask(dim))
        if past_dim.size:
            raise DimensionMismatchError(f"row {past_dim[0]}: bits set past model dim {dim}")
        rows_of: dict[int, list[int]] = {}
        for i, lab in enumerate(labels):
            self.registry.id_for(lab)  # rejects non-integer and negative labels
            rows_of.setdefault(int(lab), []).append(i)
        if not rows_of:
            return
        for lab, idx in rows_of.items():
            self._class_tally(lab).add_words(words[idx], 1)
        # A class's fusion term is its ID bound to its bundle.
        for lab in sorted(rows_of):
            class_id = self.registry.id_for(lab)
            old = self.class_bundles.get(lab)
            if old is not None:
                self._fusion.sub(class_id ^ old, 1)
            bundle = self.class_accumulators[lab].finalize()
            self.class_bundles[lab] = bundle
            self._fusion.add(class_id ^ bundle, 1)
        self.classification_vector = self._fusion.finalize()

    def _class_tally(self, lab: int) -> ConsensusAccumulator:
        """Class ``lab``'s tally, seated empty on first use."""
        acc = self.class_accumulators.get(lab)
        if acc is None:
            acc = self.class_accumulators[lab] = ConsensusAccumulator(
                self.config.dim, SeedContext(self.config.seed, "tiebreak-class", lab))
        return acc

    def _restore(self, class_states: dict[int, bytes], fusion_state: bytes) -> None:
        """Load stored tallies into this untrained model and rebuild its readouts."""
        for lab, state in class_states.items():
            acc = self._class_tally(lab)
            acc.load_state_bytes(state)
            self.class_bundles[lab] = acc.finalize()
        self._fusion.load_state_bytes(fusion_state)
        if class_states:
            self.classification_vector = self._fusion.finalize()

    # -- prediction ------------------------------------------------------

    def labels(self) -> list[int]:
        return sorted(self.class_accumulators)

    @property
    def example_counts(self) -> MappingProxyType:
        """Examples trained per class: each class tally's term count."""
        return MappingProxyType({k: a.term_count for k, a in self.class_accumulators.items()})

    def encode(self, values) -> Hypervector:
        return self.encoder.encode(values)

    def _require_trained(self):
        if self.classification_vector is None:
            raise UntrainedModelError("model has no trained classes")

    def _score_words(self, q_words: np.ndarray) -> tuple[list[int], np.ndarray]:
        """Similarity of unbound queries to every trained class ID: (n, C)."""
        self._require_trained()
        labels = self.labels()
        return labels, _kernels.unbind_similarities(
            q_words, self.classification_vector.words, self.registry.id_words(labels),
            self.config.dim)

    def predict_encoded(self, q: Hypervector) -> tuple[int, dict[int, float]]:
        if q.dim != self.config.dim:
            raise DimensionMismatchError(f"query dim {q.dim} vs model dim {self.config.dim}")
        labels, sims = self._score_words(q.words[None, :])
        return _argmax_smallest(labels, sims[0]), dict(zip(labels, sims[0].tolist()))

    def predict(self, values) -> tuple[int, dict[int, float]]:
        """Predicted label and the per-class similarity scores behind it."""
        return self.predict_encoded(self.encoder.encode(values))

    def predict_batch(self, rows) -> tuple[np.ndarray, np.ndarray, list[int]]:
        """(predicted labels, similarity matrix (n, C), class label order)."""
        labels, sims = self._score_words(self.encoder.encode_batch(rows))
        picks = np.asarray(labels, dtype=np.int64)[np.argmax(sims, axis=1)]
        return picks, sims, labels

    # -- direct comparison (no symbol unbinding) -------------------------

    def predict_direct(self, values) -> tuple[int, dict[int, float]]:
        """Nearest stored class bundle to the encoded query."""
        self._require_trained()
        labels = self.labels()
        q = self.encoder.encode(values)
        bundles = np.stack([self.class_bundles[lab].words for lab in labels])
        sims = _kernels.unbind_similarities(q.words[None, :], None, bundles, self.config.dim)[0]
        return _argmax_smallest(labels, sims), {lab: float(s) for lab, s in zip(labels, sims)}

    # -- bookkeeping -----------------------------------------------------

    def state_digest(self) -> str:
        """Hash of everything that defines the model's behaviour."""
        h = hashlib.blake2b(digest_size=16)
        h.update(json.dumps(asdict(self.config), sort_keys=True).encode())
        h.update(str(self.registry.seed).encode())
        for lab in self.labels():
            h.update(str(lab).encode())
            h.update(self.class_accumulators[lab].state_bytes())
        h.update(self._fusion.state_bytes())
        return h.hexdigest()

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
