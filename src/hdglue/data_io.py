"""Datasets, synthetic signal sources, baselines, and model files.

Two file families live here. Datasets travel as CSV (header
``label,e0,...``) or as a compact binary layout; models travel in a single
container holding a canonical JSON config plus named binary blobs. Both
are written atomically and round-trip byte for byte, with seed-derived
vectors regenerated on load instead of stored.

Synthetic sources model a classifier's penultimate activations: a fixed
per-class mean pattern plus Gaussian noise whose scale can differ per
class. That per-class scale is what makes a source a specialist: sharp
where it was "trained well", noisy elsewhere. Every example is addressed
by (seed, split, class, example id), so two processes regenerate the same
example without coordination.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import struct
import tempfile
from dataclasses import dataclass

import numpy as np

from .bundling import MILLION
from .encoding import EncoderConfig, SignalEncoder
from .errors import DataFormatError, HDGlueError, InvalidValueError
from .glue import ErrorFleet, FleetRound, GlueModel
from .hil import ClassRegistry, HILModel
from .hv import Hypervector, SeedContext, num_words
from .hv import random_hv  # not called here, but perfbench/spans.py patches it here

__all__ = [
    "EmbeddingDataset",
    "SyntheticNetworkSpec",
    "default_spec",
    "load_dataset_binary",
    "load_dataset_csv",
    "load_model",
    "nearest_centroid_oracle",
    "save_dataset_binary",
    "save_dataset_csv",
    "save_model",
    "specialist_specs",
    "two_cluster_spec",
]

DATASET_MAGIC = b"HDGE"
MODEL_MAGIC = b"HDGM"
FORMAT_VERSION = 1

_KIND_CODES = {"hil": 1, "glue": 2, "fleet": 3, "session": 4}
_KIND_NAMES = {v: k for k, v in _KIND_CODES.items()}


def atomic_write_bytes(path: str, data: bytes) -> None:
    """Write via a sibling temp file and rename, so readers never see halves."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=os.path.basename(path))
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: str, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


# -- datasets ------------------------------------------------------------


@dataclass
class EmbeddingDataset:
    """Labelled real-valued signal vectors, float32, labels >= 0."""

    values: np.ndarray
    labels: np.ndarray
    provenance: str = ""

    def __post_init__(self):
        self.values = np.ascontiguousarray(self.values, dtype=np.float32)
        self.labels = np.ascontiguousarray(self.labels, dtype=np.int64)
        if self.values.ndim != 2:
            raise InvalidValueError(f"values must be 2-d, got shape {self.values.shape}")
        if self.labels.ndim != 1 or self.labels.shape[0] != self.values.shape[0]:
            raise InvalidValueError("labels must align with value rows")
        if self.labels.size and int(self.labels.min()) < 0:
            raise InvalidValueError("labels must be non-negative")
        if self.labels.size and int(self.labels.max()) >= 1 << 32:
            raise InvalidValueError("labels must fit 32 bits")
        if not np.isfinite(self.values).all():
            bad = int(np.flatnonzero(~np.isfinite(self.values).all(axis=1))[0])
            raise InvalidValueError(f"non-finite value in row {bad}")

    def __len__(self) -> int:
        return self.values.shape[0]

    @property
    def length(self) -> int:
        return self.values.shape[1]

    def class_labels(self) -> list[int]:
        return sorted(set(self.labels.tolist()))

    def rows_for(self, label: int) -> np.ndarray:
        return self.values[self.labels == label]


def save_dataset_csv(ds: EmbeddingDataset, path: str) -> None:
    buf = io.StringIO()
    buf.write("label," + ",".join(f"e{i}" for i in range(ds.length)) + "\n")
    for i in range(len(ds)):
        # %.9g keeps every float32 exactly recoverable.
        row = ",".join(f"{float(v):.9g}" for v in ds.values[i])
        buf.write(f"{int(ds.labels[i])},{row}\n")
    atomic_write_text(path, buf.getvalue())


def _read_text(path: str) -> str:
    """A UTF-8 text file's contents; any other bytes raise DataFormatError."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            return f.read()
    except UnicodeDecodeError as e:
        raise DataFormatError(f"{path}: not UTF-8 text: {e}") from None


def load_dataset_csv(path: str) -> EmbeddingDataset:
    header, *lines = _read_text(path).split("\n")
    cols = header.split(",")
    if cols[0] != "label" or any(c != f"e{i}" for i, c in enumerate(cols[1:])):
        raise DataFormatError(f"{path}: bad CSV header {header[:80]!r}")
    d = len(cols) - 1
    if d < 1:
        raise DataFormatError(f"{path}: header declares no value columns")
    values, labels = [], []
    for lineno, line in enumerate(lines, start=2):
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != d + 1:
            raise DataFormatError(f"{path}:{lineno}: expected {d + 1} fields, got {len(parts)}")
        try:
            labels.append(int(parts[0]))
            values.append([float(p) for p in parts[1:]])
        except ValueError as e:
            raise DataFormatError(f"{path}:{lineno}: {e}") from None
        if not all(np.isfinite(values[-1])):
            raise DataFormatError(f"{path}:{lineno}: non-finite value")
    arr = np.asarray(values, dtype=np.float32) if values else np.empty((0, d), dtype=np.float32)
    return EmbeddingDataset(arr, np.asarray(labels, dtype=np.int64), provenance=path)


def save_dataset_binary(ds: EmbeddingDataset, path: str) -> None:
    out = [
        DATASET_MAGIC,
        struct.pack("<H", FORMAT_VERSION),
        struct.pack("<II", len(ds), ds.length),
        ds.values.astype("<f4").tobytes(),
        ds.labels.astype("<u4").tobytes(),
    ]
    atomic_write_bytes(path, b"".join(out))


def load_dataset_binary(path: str) -> EmbeddingDataset:
    with open(path, "rb") as f:
        data = f.read()
    if len(data) < 14 or data[:4] != DATASET_MAGIC:
        raise DataFormatError(f"{path}: not a dataset file")
    (version,) = struct.unpack_from("<H", data, 4)
    if version != FORMAT_VERSION:
        raise DataFormatError(f"{path}: unsupported version {version}")
    n, d = struct.unpack_from("<II", data, 6)
    need = 14 + n * d * 4 + n * 4
    if len(data) != need:
        raise DataFormatError(f"{path}: expected {need} bytes, found {len(data)}")
    values = np.frombuffer(data, dtype="<f4", count=n * d, offset=14).reshape(n, d)
    labels = np.frombuffer(data, dtype="<u4", count=n, offset=14 + n * d * 4)
    return EmbeddingDataset(values.copy(), labels.astype(np.int64), provenance=path)


# -- synthetic sources ---------------------------------------------------


@dataclass(frozen=True, eq=False)
class SyntheticNetworkSpec:
    """Deterministic signal source imitating one network's output layer."""

    classes: tuple
    length: int
    class_means: np.ndarray  # (len(classes), length) float32
    noise_scale: float
    specialization: tuple = ()  # ((class, scale multiplier), ...)
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "classes", tuple(int(c) for c in self.classes))
        means = np.ascontiguousarray(self.class_means, dtype=np.float32)
        if means.shape != (len(self.classes), self.length):
            raise InvalidValueError(
                f"class_means shape {means.shape} vs {(len(self.classes), self.length)}"
            )
        means.setflags(write=False)
        object.__setattr__(self, "class_means", means)
        spec = tuple(sorted((int(c), float(s)) for c, s in dict(self.specialization).items()))
        for c, s in spec:
            if c not in self.classes:
                raise InvalidValueError(f"specialization names unknown class {c}")
            if s <= 0 or not np.isfinite(s):
                raise InvalidValueError(f"noise multiplier for class {c} must be positive")
        object.__setattr__(self, "specialization", spec)
        if not self.classes:
            raise InvalidValueError("class set must not be empty")
        # zero is allowed: a noiseless source emits its class means verbatim
        if self.noise_scale < 0 or not np.isfinite(self.noise_scale):
            raise InvalidValueError("noise_scale must not be negative")

    def sigma_for(self, label: int) -> float:
        return self.noise_scale * dict(self.specialization).get(int(label), 1.0)

    def mean_for(self, label: int) -> np.ndarray:
        try:
            return self.class_means[self.classes.index(int(label))]
        except ValueError:
            raise InvalidValueError(f"class {label} not in this source") from None

    def example(self, split: str, label: int, example_id: int) -> np.ndarray:
        """The one float32 vector addressed by (seed, split, class, id)."""
        mean = self.mean_for(label)
        h = hashlib.blake2b(digest_size=8)
        h.update(struct.pack("<q", self.seed))
        h.update(split.encode("utf-8") + b"\x00")
        h.update(struct.pack("<qq", int(label), int(example_id)))
        rng = np.random.default_rng(int.from_bytes(h.digest(), "little"))
        noise = rng.standard_normal(self.length) * self.sigma_for(label)
        return (mean + noise).astype(np.float32)

    def batch(self, split: str, label: int, ids) -> np.ndarray:
        return np.stack([self.example(split, label, i) for i in ids])

    def dataset(self, split: str, per_class: int, start_id: int = 0) -> EmbeddingDataset:
        """per_class examples of every class, ordered by (class, id)."""
        if per_class < 1:
            raise InvalidValueError("per_class must be positive")
        rows, labels = [], []
        for c in self.classes:
            rows.append(self.batch(split, c, range(start_id, start_id + per_class)))
            labels.extend([c] * per_class)
        return EmbeddingDataset(
            np.vstack(rows), np.asarray(labels, dtype=np.int64),
            provenance=f"synthetic:{self.content_hash()}:{split}",
        )

    def to_json_dict(self) -> dict:
        return {
            "classes": list(self.classes),
            "length": self.length,
            "class_means": [[float(v) for v in row] for row in self.class_means],
            "noise_scale": self.noise_scale,
            "specialization": [[c, s] for c, s in self.specialization],
            "seed": self.seed,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "SyntheticNetworkSpec":
        try:
            return cls(
                classes=tuple(d["classes"]),
                length=int(d["length"]),
                class_means=np.asarray(d["class_means"], dtype=np.float32),
                noise_scale=float(d["noise_scale"]),
                specialization=tuple((int(c), float(s)) for c, s in d["specialization"]),
                seed=int(d["seed"]),
            )
        except (KeyError, TypeError, ValueError, OverflowError) as e:
            raise DataFormatError(f"bad source spec: {e}") from None

    def content_hash(self) -> str:
        blob = json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.blake2b(blob.encode(), digest_size=6).hexdigest()

    def __eq__(self, other):
        if not isinstance(other, SyntheticNetworkSpec):
            return NotImplemented
        return self.to_json_dict() == other.to_json_dict()


def two_cluster_spec(seed: int = 0, length: int = 32, scale: float = 2.0,
                     noise: float = 1.0) -> SyntheticNetworkSpec:
    """Two classes at opposite corners: +scale everywhere vs -scale everywhere."""
    means = np.vstack([np.full(length, scale), np.full(length, -scale)]).astype(np.float32)
    return SyntheticNetworkSpec((0, 1), length, means, noise, (), seed)


def _signature_means(classes, length, signature_size, scale, seed) -> np.ndarray:
    from .hv import HashStream  # local: avoids widening the hv import list above

    means = np.zeros((len(classes), length), dtype=np.float32)
    for row, c in enumerate(classes):
        stream = HashStream(SeedContext(seed, "class-mean", int(c)))
        slots = []
        while len(slots) < signature_size:
            s = stream.below(length)
            if s not in slots:
                slots.append(s)
        for s in slots:
            means[row, s] = scale if stream.below(2) else -scale
    return means


def default_spec(seed: int = 0, n_classes: int = 10, length: int = 32,
                 signature_size: int = 6, scale: float = 2.0,
                 noise: float = 1.0) -> SyntheticNetworkSpec:
    """n classes, each marked by a few signed coordinates on a zero background."""
    if signature_size > length:
        raise InvalidValueError("signature larger than the vector")
    classes = tuple(range(n_classes))
    means = _signature_means(classes, length, signature_size, scale, seed)
    return SyntheticNetworkSpec(classes, length, means, noise, (), seed)


def specialist_specs(seed: int = 0, n_models: int = 5, n_classes: int = 10,
                     length: int = 32, signature_size: int | None = None,
                     scale: float = 2.0, sharp: float = 0.5, dull: float = 3.0,
                     classes_per_model: int = 2) -> list[SyntheticNetworkSpec]:
    """One source per model, sharp on its own slice of classes, noisy elsewhere.

    Model k owns classes [k*cpm, (k+1)*cpm); each model lives in its own
    signal space (its own means), only the class labels are shared.
    signature_size defaults to length: every component carries class signal,
    which keeps per-class margins usable even at the dull noise level.
    """
    if n_models * classes_per_model < n_classes:
        raise InvalidValueError("specialist slices do not cover the classes")
    if signature_size is None:
        signature_size = length
    classes = tuple(range(n_classes))
    specs = []
    for k in range(n_models):
        h = hashlib.blake2b(struct.pack("<qq", seed, k), digest_size=8)
        model_seed = int.from_bytes(h.digest(), "little") >> 1
        own = {c for c in range(k * classes_per_model, (k + 1) * classes_per_model)
               if c < n_classes}
        spec = SyntheticNetworkSpec(
            classes=classes,
            length=length,
            class_means=_signature_means(classes, length, signature_size, scale, model_seed),
            noise_scale=1.0,
            specialization=tuple((c, sharp if c in own else dull) for c in classes),
            seed=model_seed,
        )
        specs.append(spec)
    return specs


def nearest_centroid_oracle(train: EmbeddingDataset, test: EmbeddingDataset):
    """Accuracy and predictions of plain nearest-centroid on raw values."""
    if train.length != test.length:
        raise InvalidValueError("train and test disagree on vector length")
    labels = train.class_labels()
    if not labels:
        raise InvalidValueError("oracle needs training examples")
    centroids = np.stack([train.rows_for(c).mean(axis=0) for c in labels])
    d2 = ((test.values[:, None, :].astype(np.float64)
           - centroids[None, :, :].astype(np.float64)) ** 2).sum(axis=2)
    picks = np.asarray(labels, dtype=np.int64)[np.argmin(d2, axis=1)]
    accuracy = float((picks == test.labels).mean()) if len(test) else 0.0
    return accuracy, picks


# -- model container -----------------------------------------------------


def _canon_json(d: dict) -> bytes:
    return json.dumps(d, sort_keys=True, separators=(",", ":")).encode("utf-8")


def _pack_container(kind: str, config: dict, blobs: dict[str, bytes]) -> bytes:
    cfg = _canon_json(config)
    out = [
        MODEL_MAGIC,
        struct.pack("<HB", FORMAT_VERSION, _KIND_CODES[kind]),
        struct.pack("<I", len(cfg)),
        cfg,
        struct.pack("<I", len(blobs)),
    ]
    for name in sorted(blobs):
        nb = name.encode("utf-8")
        out.append(struct.pack("<H", len(nb)))
        out.append(nb)
        out.append(struct.pack("<Q", len(blobs[name])))
        out.append(blobs[name])
    return b"".join(out)


def _unpack_container(data: bytes, path: str = "<bytes>"):
    if len(data) < 11 or data[:4] != MODEL_MAGIC:
        raise DataFormatError(f"{path}: not a model file")
    version, code = struct.unpack_from("<HB", data, 4)
    if version != FORMAT_VERSION:
        raise DataFormatError(f"{path}: unsupported version {version}")
    if code not in _KIND_NAMES:
        raise DataFormatError(f"{path}: unknown model kind {code}")
    (cfg_len,) = struct.unpack_from("<I", data, 7)
    pos = 11
    if pos + cfg_len > len(data):
        raise DataFormatError(f"{path}: truncated config")
    try:
        config = json.loads(data[pos : pos + cfg_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise DataFormatError(f"{path}: bad config: {e}") from None
    pos += cfg_len
    if pos + 4 > len(data):
        raise DataFormatError(f"{path}: truncated blob table")
    (n_blobs,) = struct.unpack_from("<I", data, pos)
    pos += 4
    blobs = {}
    for _ in range(n_blobs):
        if pos + 2 > len(data):
            raise DataFormatError(f"{path}: truncated blob name")
        (name_len,) = struct.unpack_from("<H", data, pos)
        pos += 2
        try:
            name = data[pos : pos + name_len].decode("utf-8")
        except UnicodeDecodeError as e:
            raise DataFormatError(f"{path}: bad blob name: {e}") from None
        pos += name_len
        if pos + 8 > len(data):
            raise DataFormatError(f"{path}: truncated blob header")
        (size,) = struct.unpack_from("<Q", data, pos)
        pos += 8
        if pos + size > len(data):
            raise DataFormatError(f"{path}: blob {name!r} truncated")
        blobs[name] = data[pos : pos + size]
        pos += size
    if pos != len(data):
        raise DataFormatError(f"{path}: {len(data) - pos} trailing bytes")
    return _KIND_NAMES[code], config, blobs


def _encoder_config_dict(cfg: EncoderConfig) -> dict:
    return {"length": cfg.length, "dim": cfg.dim, "num_levels": cfg.num_levels, "seed": cfg.seed}


def _encoder_config_from(d: dict) -> EncoderConfig:
    return EncoderConfig(
        length=int(d["length"]), dim=int(d["dim"]),
        num_levels=int(d["num_levels"]), seed=int(d["seed"]),
    )


def _hil_state(model: HILModel) -> tuple[dict, dict]:
    config = {
        "encoder": _encoder_config_dict(model.config),
        "registry_seed": model.registry.seed,
        "labels": model.labels(),
        "example_counts": {str(k): v for k, v in sorted(model.example_counts.items())},
    }
    blobs = {f"acc/{lab}": model.class_accumulators[lab].state_bytes() for lab in model.labels()}
    blobs["fusion"] = model._fusion.state_bytes()
    return config, blobs


def _hil_restore(config: dict, blobs: dict, registry: ClassRegistry | None = None,
                 encoder: SignalEncoder | None = None) -> HILModel:
    """Rebuild a model; ``encoder`` is reused when its config matches."""
    enc_cfg = _encoder_config_from(config["encoder"])
    if registry is None:
        registry = ClassRegistry(int(config["registry_seed"]), enc_cfg.dim)
    if encoder is not None and encoder.config != enc_cfg:
        encoder = None
    model = HILModel(enc_cfg, registry, _encoder=encoder)
    labels = [int(lab) for lab in config["labels"]]
    model._restore({lab: blobs[f"acc/{lab}"] for lab in labels}, blobs["fusion"])
    counts = model.example_counts
    for lab in labels:
        if int(config["example_counts"][str(lab)]) != counts[lab]:
            raise DataFormatError(f"class {lab}: example count disagrees with its tally")
    return model


def _glue_state(glue: GlueModel) -> tuple[dict, dict]:
    members = []
    blobs = {"fusion": glue._fusion.state_bytes()}
    for name, m in glue.members.items():
        entry = {
            "name": name,
            "index": m.index,
            "weight": m.weight,
            "active": m.active,
            "labels": sorted(m.labels),
            "kind": "fold" if m.hil is None else "hil",
        }
        if m.hil is not None:
            cfg, sub = _hil_state(m.hil)
            entry["hil"] = cfg
            for k, v in sub.items():
                blobs[f"member/{m.index}/{k}"] = v
        else:
            entry["encoder"] = _encoder_config_dict(m.encoder.config)
            blobs[f"member/{m.index}/fold"] = m.fold_acc.state_bytes()
        members.append(entry)
    config = {
        "seed": glue.seed,
        "dim": glue.dim,
        "registry_seed": glue.registry.seed,
        "next_index": glue._next_index,
        "members": members,
    }
    return config, blobs


def _sub_blobs(blobs: dict, prefix: str) -> dict:
    """The blobs named under ``prefix``, with the prefix stripped."""
    return {k[len(prefix):]: v for k, v in blobs.items() if k.startswith(prefix)}


def _glue_restore(config: dict, blobs: dict) -> GlueModel:
    registry = ClassRegistry(int(config["registry_seed"]), int(config["dim"]))
    glue = GlueModel(registry, seed=int(config["seed"]))
    for entry in config["members"]:
        index = int(entry["index"])
        sub = _sub_blobs(blobs, f"member/{index}/")
        if entry["kind"] == "hil":
            # A member of another dim fails the registry's dim check.
            hil, encoder, fold_acc = _hil_restore(entry["hil"], sub, registry), None, None
        else:
            hil, encoder = None, SignalEncoder(_encoder_config_from(entry["encoder"]))
            fold_acc = glue._fold_tally(index, sub["fold"])
        glue._seat(entry["name"], index, int(entry["weight"]), [int(c) for c in entry["labels"]],
                   hil, encoder, fold_acc, bool(entry["active"]))
    glue._restore(int(config["next_index"]), blobs["fusion"])
    return glue


def _fleet_state(fleet: ErrorFleet) -> tuple[dict, dict]:
    rounds = []
    blobs = {}
    for i, rnd in enumerate(fleet.rounds):
        cfg, sub = _hil_state(rnd.hil)
        rounds.append({
            "hil": cfg,
            "weight": rnd.weight,
            "subset_size": rnd.subset_size,
            "correct": rnd.correct,
            "fleet_accuracy_millionths": round(rnd.fleet_accuracy * MILLION),
        })
        for k, v in sub.items():
            blobs[f"round/{i}/{k}"] = v
    dim = fleet.rounds[0].hil.config.dim
    for j, (words, lab) in enumerate(zip(fleet.memory_words, fleet.memory_labels.tolist())):
        blobs[f"memory/{j}"] = struct.pack("<q", lab) + Hypervector(dim, words).to_bytes()
    config = {
        "rounds": rounds,
        "memory_size": len(fleet.memory_labels),
        "memory_threshold_millionths": round(fleet.memory_threshold * MILLION),
        "label_order": fleet.label_order,
        "glue_seed": fleet.glue_seed,
    }
    return config, blobs


def _fleet_restore(config: dict, blobs: dict) -> ErrorFleet:
    registry = encoder = None
    rounds = []
    for i, entry in enumerate(config["rounds"]):
        hil = _hil_restore(entry["hil"], _sub_blobs(blobs, f"round/{i}/"), registry, encoder)
        registry, encoder = hil.registry, hil.encoder
        rounds.append(FleetRound(
            hil, int(entry["weight"]), int(entry["subset_size"]), int(entry["correct"]),
            int(entry["fleet_accuracy_millionths"]) / MILLION,
        ))
    if not rounds:
        raise DataFormatError("fleet file holds no rounds")
    dim, size = encoder.dim, int(config["memory_size"])
    words = np.empty((size, num_words(dim)), dtype=np.uint64)
    labels = np.empty(size, dtype=np.int64)
    for j in range(size):
        raw = blobs[f"memory/{j}"]
        (labels[j],) = struct.unpack_from("<q", raw, 0)
        q = Hypervector.from_bytes(raw[8:])
        if q.dim != dim:
            raise DataFormatError(f"memory row {j} has dim {q.dim}, expected {dim}")
        words[j] = q.words
    return ErrorFleet(
        rounds, int(config["glue_seed"]), words, labels,
        int(config["memory_threshold_millionths"]) / MILLION,
        [int(c) for c in config["label_order"]],
    )


def _session_state(session) -> tuple[dict, dict]:
    gcfg, gblobs = _glue_state(session.glue)
    config = session._payload()
    config["specs"] = {name: spec.to_json_dict() for name, spec in sorted(session.specs.items())}
    config["glue"] = gcfg
    return config, {f"glue/{k}": v for k, v in gblobs.items()}


def _session_restore(config: dict, blobs: dict):
    from .online import OnlineConfig, OnlineSession

    c = config["config"]
    session = OnlineSession(OnlineConfig(
        dim=int(c["dim"]), num_levels=int(c["num_levels"]),
        seed=int(c["seed"]), test_per_class=int(c["test_per_class"]),
    ))
    session.glue = _glue_restore(config["glue"], _sub_blobs(blobs, "glue/"))
    session.specs = {
        name: SyntheticNetworkSpec.from_json_dict(d) for name, d in config["specs"].items()
    }
    session.intro_order = [int(x) for x in config["intro_order"]]
    session.next_train_id = {int(k): int(v) for k, v in config["next_train_id"].items()}
    session.history = config["history"]
    session.events_applied = config["events"]
    return session


_RESTORE = {"hil": _hil_restore, "glue": _glue_restore, "fleet": _fleet_restore,
            "session": _session_restore}


def model_to_bytes(obj) -> bytes:
    from .online import OnlineSession

    for kind, cls, state in (("hil", HILModel, _hil_state), ("glue", GlueModel, _glue_state),
                             ("fleet", ErrorFleet, _fleet_state),
                             ("session", OnlineSession, _session_state)):
        if isinstance(obj, cls):
            return _pack_container(kind, *state(obj))
    raise InvalidValueError(f"cannot serialize {type(obj).__name__}")


def model_from_bytes(data: bytes, path: str = "<bytes>"):
    kind, config, blobs = _unpack_container(data, path)
    try:
        return _RESTORE[kind](config, blobs)
    except DataFormatError:
        raise
    except (AttributeError, KeyError, IndexError, TypeError, ValueError, OverflowError,
            struct.error, HDGlueError) as e:
        # A missing field, a field of the wrong JSON type or a short blob.
        raise DataFormatError(f"{path}: malformed {kind} file: {e!r}") from e


def save_model(obj, path: str) -> None:
    atomic_write_bytes(path, model_to_bytes(obj))


def load_model(path: str):
    with open(path, "rb") as f:
        data = f.read()
    return model_from_bytes(data, path)
