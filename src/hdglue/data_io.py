"""Datasets, synthetic signal sources, baselines, and model files.

Two file families live here. Datasets travel as CSV (header
``label,e0,...``) or as a compact binary layout; models travel in a single
container holding a canonical JSON config plus named binary blobs. Both
are written atomically and round-trip byte for byte, with seed-derived
vectors regenerated on load instead of stored. Each stored fact has one
copy, and both binary layouts end with a CRC-32 of every byte before it,
so a corrupted file is refused instead of loaded as a different model.

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
import zlib
from dataclasses import asdict, dataclass

import numpy as np

from .bundling import MILLION
from .encoding import EncoderConfig, SignalEncoder
from .errors import DataFormatError, HDGlueError, InvalidValueError
from .glue import ErrorFleet, FleetRound, GlueModel, round_weight
from .hil import ClassRegistry, HILModel
from .hv import _U64_MASK, HashStream, SeedContext, _hash_block, check_int, check_words, num_words
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
FORMAT_VERSION = 2

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
        labels = np.asarray(self.labels)
        if labels.size and not np.issubdtype(labels.dtype, np.integer):
            raise InvalidValueError(f"labels must be integers, got dtype {labels.dtype}")
        self.labels = np.ascontiguousarray(labels, dtype=np.int64)
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


def _with_crc(parts: list) -> bytes:
    """``parts`` joined and followed by the CRC-32 trailer every binary file
    ends with; one join, so the file is built without a second copy."""
    crc = 0
    for part in parts:
        crc = zlib.crc32(part, crc)
    return b"".join([*parts, struct.pack("<I", crc)])


def _check_file(data: bytes, magic: bytes, header: int, path: str, what: str) -> None:
    """Refuse anything but a current-version ``what`` file with an intact trailer.

    Magic and version come first, so a file of another version is refused by
    its version; ``header`` is the byte count of the fixed header.
    """
    if len(data) < header + 4 or data[:4] != magic:
        raise DataFormatError(f"{path}: not a {what} file")
    (version,) = struct.unpack_from("<H", data, 4)
    if version != FORMAT_VERSION:
        raise DataFormatError(
            f"{path}: format version {version} is not supported; this reader reads "
            f"version {FORMAT_VERSION} only")
    (crc,) = struct.unpack_from("<I", data, len(data) - 4)
    if zlib.crc32(memoryview(data)[:-4]) != crc:
        raise DataFormatError(f"{path}: CRC-32 mismatch, the file is corrupted")


def save_dataset_binary(ds: EmbeddingDataset, path: str) -> None:
    out = [
        DATASET_MAGIC,
        struct.pack("<H", FORMAT_VERSION),
        struct.pack("<II", len(ds), ds.length),
        ds.values.astype("<f4").tobytes(),
        ds.labels.astype("<u4").tobytes(),
    ]
    atomic_write_bytes(path, _with_crc(out))


def load_dataset_binary(path: str) -> EmbeddingDataset:
    with open(path, "rb") as f:
        data = f.read()
    _check_file(data, DATASET_MAGIC, 14, path, "dataset")
    n, d = struct.unpack_from("<II", data, 6)
    need = 14 + n * d * 4 + n * 4 + 4
    if len(data) != need:
        raise DataFormatError(f"{path}: expected {need} bytes, found {len(data)}")
    values = np.frombuffer(data, dtype="<f4", count=n * d, offset=14).reshape(n, d)
    labels = np.frombuffer(data, dtype="<u4", count=n, offset=14 + n * d * 4)
    return EmbeddingDataset(values.copy(), labels.astype(np.int64), provenance=path)


# -- synthetic sources ---------------------------------------------------

# ``np.random.default_rng(seed)`` for a seed below 2**64 is PCG64 seeded by
# ``SeedSequence(seed).generate_state(4, np.uint64)``. ``_pcg64_states``
# computes that for many seeds at once. SeedSequence hashes the seed's 32-bit
# words into a pool of four with ``hashmix(v) = (v ^ h) * h' then v ^= v >> 16``,
# where ``h`` walks a fixed sequence (``h' = h * mult``) whatever the data, so
# every call's pair of constants is known up front. An absent high word hashes
# as the zero that fills the rest of the pool, so one- and two-word seeds share
# one formula.
_SS_MIX_L, _SS_MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_SS_SHIFT = np.uint32(16)
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_U128_MASK = (1 << 128) - 1
_I64_BOUND = 1 << 63
# Seeds the one generator ``batch`` makes per call, whose state it then
# overwrites row by row: a fixed seed only spares reading OS entropy.
_PLACEHOLDER_SEED = np.random.SeedSequence(0)


def _check_real(name: str, value) -> float:
    """``value`` as a float; a bool or a non-number raises InvalidValueError."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise InvalidValueError(f"{name} must be a number, got {value!r}")
    return float(value)


def _hash_walk(init: int, mult: int, count: int) -> np.ndarray:
    """The first ``count`` values of SeedSequence's running hash constant."""
    walk = [init]
    for _ in range(count - 1):
        walk.append(walk[-1] * mult & 0xFFFFFFFF)
    return np.array(walk, dtype=np.uint32)[:, None]


_SS_POOL_HASH = _hash_walk(0x43B0D7E5, 0x931E8875, 17)  # 4 fills, then 12 mixes
_SS_OUT_HASH = _hash_walk(0x8B51F9DD, 0x58F38DED, 9)  # 8 output words


def _ss_mix_steps():
    """Per source word: the xor and multiply constants of the three words it
    is mixed into; its own row gets zeros and is put back after."""
    steps, k = [], 4
    for src in range(4):
        xor, mul = np.zeros((2, 4, 1), dtype=np.uint32)
        dst = [d for d in range(4) if d != src]
        xor[dst], mul[dst] = _SS_POOL_HASH[k:k + 3], _SS_POOL_HASH[k + 1:k + 4]
        steps.append((src, xor, mul))
        k += 3
    return steps


_SS_MIX_STEPS = _ss_mix_steps()


def _pcg64_states(seeds: np.ndarray) -> list:
    """``(state, inc)`` of ``np.random.default_rng(s).bit_generator`` for
    each uint64 seed ``s``, as Python ints."""
    pool = np.zeros((4, seeds.size), dtype=np.uint32)
    pool[:2] = seeds.astype("<u8", copy=False).view("<u4").reshape(-1, 2).T
    pool ^= _SS_POOL_HASH[:4]
    pool *= _SS_POOL_HASH[1:5]
    pool ^= pool >> _SS_SHIFT
    hashed = np.empty_like(pool)
    for src, xor, mul in _SS_MIX_STEPS:
        # pool[dst] = mix(pool[dst], hashmix(pool[src])), for every dst != src
        kept = pool[src].copy()
        np.bitwise_xor(kept, xor, out=hashed)
        hashed *= mul
        hashed ^= hashed >> _SS_SHIFT
        hashed *= _SS_MIX_R
        pool *= _SS_MIX_L
        pool -= hashed
        pool ^= pool >> _SS_SHIFT
        pool[src] = kept
    # generate_state: eight words, each a hash of pool[j % 4], read as four uint64s
    out = np.empty((2, 4, seeds.size), dtype=np.uint32)
    np.bitwise_xor(pool, _SS_OUT_HASH[:8].reshape(2, 4, 1), out=out)
    out *= _SS_OUT_HASH[1:].reshape(2, 4, 1)
    out ^= out >> _SS_SHIFT
    words = np.ascontiguousarray(out.reshape(8, -1).T, dtype="<u4").view("<u8")
    states = []
    for init_hi, init_lo, seq_hi, seq_lo in words.tolist():
        # PCG's srandom: state = 0, inc = seq << 1 | 1, step, add initstate, step
        inc = (seq_hi << 65 | seq_lo << 1 | 1) & _U128_MASK
        state = ((inc + (init_hi << 64 | init_lo)) * _PCG64_MULT + inc) & _U128_MASK
        states.append((state, inc))
    return states


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
        # Plain ints and floats, so a spec read back from its JSON dict is
        # the spec that wrote it and hashes the same.
        object.__setattr__(self, "classes", tuple(check_int("class", c) for c in self.classes))
        for name in ("length", "seed"):
            object.__setattr__(self, name, check_int(name, getattr(self, name)))
        if not -_I64_BOUND <= self.seed < _I64_BOUND:
            raise InvalidValueError("seed must lie in [-2**63, 2**63)")
        means = np.ascontiguousarray(self.class_means, dtype=np.float32)
        if means.shape != (len(self.classes), self.length):
            raise InvalidValueError(
                f"class_means shape {means.shape} vs {(len(self.classes), self.length)}"
            )
        means.setflags(write=False)
        object.__setattr__(self, "class_means", means)
        spec = tuple(sorted((check_int("class", c), _check_real("noise multiplier", s))
                            for c, s in dict(self.specialization).items()))
        for c, s in spec:
            if c not in self.classes:
                raise InvalidValueError(f"specialization names unknown class {c}")
            if s <= 0 or not np.isfinite(s):
                raise InvalidValueError(f"noise multiplier for class {c} must be positive")
        object.__setattr__(self, "specialization", spec)
        if not self.classes:
            raise InvalidValueError("class set must not be empty")
        object.__setattr__(self, "noise_scale", _check_real("noise_scale", self.noise_scale))
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
        return self.batch(split, label, [example_id])[0]

    def batch(self, split: str, label: int, ids) -> np.ndarray:
        """(len(ids), length) float32 rows of class ``label``, one per example id.

        Row ``i`` is ``mean + sigma * default_rng(seed_i).standard_normal(length)``
        rounded to float32, where ``seed_i`` is the BLAKE2b-64 hash of
        (seed, split, label, i). The seeds of all rows are expanded in one
        pass, then set on one generator in turn.
        """
        label = check_int("label", label)
        mean, sigma = self.mean_for(label), self.sigma_for(label)
        if isinstance(ids, range):
            # A range holds ints only, and its extremes are its ends.
            ends = (ids[0], ids[-1]) if ids else ()
        else:
            ids = [check_int("example id", i) for i in ids]
            ends = (min(ids), max(ids)) if ids else ()
        if not all(-_I64_BOUND <= i < _I64_BOUND for i in ends):
            raise InvalidValueError("example ids must lie in [-2**63, 2**63)")
        prefix = hashlib.blake2b(digest_size=8)
        prefix.update(struct.pack("<q", self.seed))
        prefix.update(split.encode("utf-8") + b"\x00")
        prefix.update(struct.pack("<q", label))
        # an id's two's-complement bytes: struct.pack("<q", i) == struct.pack("<Q", i & mask)
        seeds = b"".join([_hash_block(prefix, i & _U64_MASK) for i in ids])
        bit_gen = np.random.PCG64(_PLACEHOLDER_SEED)
        gen = np.random.Generator(bit_gen)
        noise = np.empty((len(ids), self.length))
        for row, (state, inc) in zip(noise, _pcg64_states(np.frombuffer(seeds, dtype="<u8"))):
            bit_gen.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                             "has_uint32": 0, "uinteger": 0}
            gen.standard_normal(out=row)
        noise *= sigma
        noise += mean
        return noise.astype(np.float32)

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
            return cls(**d)
        except (TypeError, ValueError, HDGlueError) as e:
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
    return _with_crc(out)


def _unpack_container(data: bytes, path: str = "<bytes>"):
    """(kind, config, blobs) of a container; each blob is a memoryview into ``data``."""
    _check_file(data, MODEL_MAGIC, 11, path, "model")
    kind = _KIND_NAMES.get(data[6])
    if kind is None:
        raise DataFormatError(f"{path}: unknown model kind {data[6]}")
    body = memoryview(data)[:-4]  # the trailer is checked
    try:
        (cfg_len,) = struct.unpack_from("<I", body, 7)
        pos = 11 + cfg_len
        config = json.loads(bytes(body[11:pos]).decode("utf-8"))
        (n_blobs,) = struct.unpack_from("<I", body, pos)
        pos += 4
        blobs = {}
        for _ in range(n_blobs):
            # A field cut short fails the next unpack or the final length check.
            (name_len,) = struct.unpack_from("<H", body, pos)
            name = bytes(body[pos + 2 : pos + 2 + name_len]).decode("utf-8")
            (size,) = struct.unpack_from("<Q", body, pos + 2 + name_len)
            pos += 10 + name_len
            blobs[name] = body[pos : pos + size]
            pos += size
    except (struct.error, UnicodeDecodeError, json.JSONDecodeError) as e:
        raise DataFormatError(f"{path}: malformed container: {e}") from None
    if pos != len(body):
        raise DataFormatError(f"{path}: contents end at byte {pos}, the file at {len(body)}")
    return kind, config, blobs


def _tally_blobs(model: HILModel) -> dict:
    """A model's tallies: ``acc/{label}`` per class and its ``fusion``."""
    blobs = {f"acc/{lab}": model.class_accumulators[lab].state_bytes() for lab in model.labels()}
    blobs["fusion"] = model._fusion.state_bytes()
    return blobs


def _load_tallies(model: HILModel, labels, blobs: dict) -> HILModel:
    """Load the tallies :func:`_tally_blobs` wrote for ``labels`` into an untrained model."""
    model._restore({int(lab): blobs[f"acc/{int(lab)}"] for lab in labels}, blobs["fusion"])
    return model


def _hil_state(model: HILModel) -> tuple[dict, dict]:
    config = {
        "encoder": asdict(model.config),
        "registry_seed": model.registry.seed,
        "labels": model.labels(),
    }
    return config, _tally_blobs(model)


def _hil_restore(config: dict, blobs: dict) -> HILModel:
    enc_cfg = EncoderConfig(**config["encoder"])
    registry = ClassRegistry(int(config["registry_seed"]), enc_cfg.dim)
    return _load_tallies(HILModel(enc_cfg, registry), config["labels"], blobs)


def _glue_state(glue: GlueModel) -> tuple[dict, dict]:
    members = []
    blobs = {"fusion": glue._fusion.state_bytes()}
    for name, m in glue.members.items():
        if m.hil is not None and m.vector is not m.hil.classification_vector:
            raise InvalidValueError(
                f"member {name!r} was trained outside the glue, so its term no longer "
                f"matches its model; re-seat it with update_member({name!r}, [], []) "
                f"before saving")
        members.append({
            "name": name,
            "index": m.index,
            "weight": m.weight,
            "active": m.active,
            "kind": "fold" if m.hil is None else "hil",
            "labels": sorted(m.labels),
            "encoder": asdict(m.encoder.config),
        })
        sub = _tally_blobs(m.hil) if m.hil is not None else {"fold": m.fold_acc.state_bytes()}
        blobs.update((f"member/{m.index}/{k}", v) for k, v in sub.items())
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
        labels = [int(c) for c in entry["labels"]]
        enc_cfg = EncoderConfig(**entry["encoder"])
        if entry["kind"] == "hil":
            # A member of another dim fails the registry's dim check.
            hil = _load_tallies(HILModel(enc_cfg, registry), labels, sub)
            encoder = fold_acc = None
        else:
            hil, encoder = None, SignalEncoder(enc_cfg)
            fold_acc = glue._fold_tally(index, sub["fold"])
        glue._seat(entry["name"], index, int(entry["weight"]), labels,
                   hil, encoder, fold_acc, bool(entry["active"]))
    glue._restore(int(config["next_index"]), blobs["fusion"])
    return glue


def _fleet_state(fleet: ErrorFleet) -> tuple[dict, dict]:
    rounds = []
    blobs = {}
    for i, rnd in enumerate(fleet.rounds):
        rounds.append({
            "labels": rnd.hil.labels(),
            "subset_size": rnd.subset_size,
            "correct": rnd.correct,
            "fleet_accuracy_millionths": round(rnd.fleet_accuracy * MILLION),
        })
        blobs.update((f"round/{i}/{k}", v) for k, v in _tally_blobs(rnd.hil).items())
    blobs["memory/words"] = fleet.memory_words.astype("<u8").tobytes()
    blobs["memory/labels"] = fleet.memory_labels.astype("<i8").tobytes()
    first = fleet.rounds[0].hil
    config = {
        "encoder": asdict(first.config),
        "registry_seed": first.registry.seed,
        "rounds": rounds,
        "memory_threshold_millionths": round(fleet.memory_threshold * MILLION),
        "glue_seed": fleet.glue_seed,
    }
    return config, blobs


def _fleet_restore(config: dict, blobs: dict) -> ErrorFleet:
    enc_cfg = EncoderConfig(**config["encoder"])
    registry = ClassRegistry(int(config["registry_seed"]), enc_cfg.dim)
    encoder = SignalEncoder(enc_cfg)
    rounds = []
    for i, entry in enumerate(config["rounds"]):
        hil = _load_tallies(HILModel(enc_cfg, registry, _encoder=encoder), entry["labels"],
                            _sub_blobs(blobs, f"round/{i}/"))
        subset, correct = int(entry["subset_size"]), int(entry["correct"])
        # Round 1 trains on every row, so its subset is the training set.
        n_total = subset if not rounds else rounds[0].subset_size
        rounds.append(FleetRound(
            hil, round_weight(subset / n_total, correct / subset), subset, correct,
            int(entry["fleet_accuracy_millionths"]) / MILLION,
        ))
    if not rounds:
        raise DataFormatError("fleet file holds no rounds")
    # A blob that is no whole number of rows fails the reshape.
    words = np.frombuffer(blobs["memory/words"], dtype="<u8").reshape(-1, num_words(enc_cfg.dim))
    labels = np.frombuffer(blobs["memory/labels"], dtype="<i8")
    if len(labels) != len(words):
        raise DataFormatError(f"memory holds {len(words)} rows but {len(labels)} labels")
    return ErrorFleet(
        rounds, int(config["glue_seed"]), check_words(words.astype(np.uint64), enc_cfg.dim),
        labels.astype(np.int64), int(config["memory_threshold_millionths"]) / MILLION,
    )


def _session_state(session) -> tuple[dict, dict]:
    gcfg, gblobs = _glue_state(session.glue)
    config = {
        "config": asdict(session.config),
        "events": session.events_applied,
        "glue": gcfg,
        "history": session.history,
    }
    return config, {f"glue/{k}": v for k, v in gblobs.items()}


def _session_restore(config: dict, blobs: dict):
    from .online import OnlineConfig, OnlineSession, event_from_dict

    session = OnlineSession(OnlineConfig(**config["config"]))
    session.glue = _glue_restore(config["glue"], _sub_blobs(blobs, "glue/"))
    for d in config["events"]:
        session._book(event_from_dict(d))
    session.history = config["history"]
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


def state_digest(obj) -> str:
    """BLAKE2b-128 hex of ``obj``'s container bytes, the one definition of its state."""
    return hashlib.blake2b(model_to_bytes(obj), digest_size=16).hexdigest()


def model_from_bytes(data: bytes, path: str = "<bytes>"):
    kind, config, blobs = _unpack_container(data, path)
    try:
        return _RESTORE[kind](config, blobs)
    except DataFormatError:
        raise
    except (AttributeError, KeyError, IndexError, TypeError, ValueError, OverflowError,
            ZeroDivisionError, HDGlueError) as e:
        # A missing field, a field of the wrong JSON type or a short blob.
        raise DataFormatError(f"{path}: malformed {kind} file: {e!r}") from e


def save_model(obj, path: str) -> None:
    atomic_write_bytes(path, model_to_bytes(obj))


def load_model(path: str):
    with open(path, "rb") as f:
        data = f.read()
    return model_from_bytes(data, path)
