"""Scheduled online runs: models and classes arriving over time.

A schedule is a flat list of three event kinds. AddModel seats a fresh,
untrained member in the glue and may introduce new class labels; Observe
hands every active member the same batch of new training example IDs for
every introduced class; Evaluate scores the glue on each class's fixed
held-out set. Examples are addressed content-free by (source seed, split,
class, example id), so a run is reproducible from its schedule alone and
a snapshot can resume mid-stream bit for bit.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .bundling import MILLION, to_millionths
from .data_io import SyntheticNetworkSpec, state_digest
from .encoding import EncoderConfig
from .errors import DataFormatError, HDGlueError, InvalidValueError
from .glue import GlueModel
from .hil import ClassRegistry, HILModel
from .hv import DEFAULT_DIM, check_int

__all__ = [
    "AddModel",
    "Evaluate",
    "Observe",
    "OnlineConfig",
    "OnlineSession",
    "event_from_dict",
    "event_to_dict",
    "history_table_csv",
    "schedule_from_json",
    "schedule_to_json",
    "session_run",
    "staged_schedule",
]


@dataclass(frozen=True)
class OnlineConfig:
    dim: int = DEFAULT_DIM
    num_levels: int = 65
    seed: int = 0
    test_per_class: int = 100

    def __post_init__(self):
        for name in ("dim", "num_levels", "seed", "test_per_class"):
            object.__setattr__(self, name, check_int(name, getattr(self, name)))
        if self.test_per_class < 1:
            raise InvalidValueError("test_per_class must be positive")


@dataclass(frozen=True)
class AddModel:
    """Seat a new member; ``classes`` lists the labels it introduces.

    ``weight`` is in votes; one read back from a schedule file is the exact
    ``Fraction`` of its stored millionths.
    """

    name: str
    spec: SyntheticNetworkSpec
    classes: tuple = ()
    weight: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "classes", tuple(check_int("class", c) for c in self.classes))
        to_millionths(self.weight)  # refuses a weight no glue would take


@dataclass(frozen=True)
class Observe:
    """Every active member trains on ``per_class`` fresh examples of every
    introduced class, drawn from its own signal source."""

    per_class: int

    def __post_init__(self):
        object.__setattr__(self, "per_class", check_int("per_class", self.per_class))
        if self.per_class < 1:
            raise InvalidValueError("observe batch must be positive")


@dataclass(frozen=True)
class Evaluate:
    """Score each introduced class's held-out set through the glue."""

    label: str = ""


def event_to_dict(event) -> dict:
    if isinstance(event, AddModel):
        return {
            "event": "add_model",
            "name": event.name,
            "spec": event.spec.to_json_dict(),
            "classes": list(event.classes),
            "weight_millionths": to_millionths(event.weight),
        }
    if isinstance(event, Observe):
        return {"event": "observe", "per_class": event.per_class}
    if isinstance(event, Evaluate):
        return {"event": "evaluate", "label": event.label}
    raise InvalidValueError(f"unknown event type {type(event).__name__}")


def event_from_dict(d: dict):
    try:
        kind = d.get("event")
        if kind == "add_model":
            return AddModel(
                name=str(d["name"]),
                spec=SyntheticNetworkSpec.from_json_dict(d["spec"]),
                classes=tuple(d["classes"]),
                weight=Fraction(check_int("weight_millionths", d["weight_millionths"]), MILLION),
            )
        if kind == "observe":
            return Observe(per_class=d["per_class"])
        if kind == "evaluate":
            return Evaluate(label=str(d.get("label", "")))
    except (AttributeError, KeyError, TypeError, HDGlueError) as e:
        # An event that is no JSON object, or a field missing, of the wrong
        # type or refused by its event's constructor.
        raise DataFormatError(f"bad schedule event: {e!r}") from e
    raise DataFormatError(f"unknown schedule event {kind!r}")


def schedule_to_json(schedule) -> str:
    return json.dumps([event_to_dict(e) for e in schedule], indent=2, sort_keys=True)


def schedule_from_json(text: str) -> list:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        raise DataFormatError(f"bad schedule JSON: {e}") from None
    if not isinstance(raw, list):
        raise DataFormatError("schedule JSON must be a list of events")
    return [event_from_dict(d) for d in raw]


def staged_schedule(specs, classes_per_stage=2, observe_per_class=100) -> list:
    """The growing-fleet protocol: each stage seats one model, introduces
    its slice of classes, observes, and evaluates."""
    schedule = []
    next_class = 0
    for k, spec in enumerate(specs):
        classes = tuple(
            c for c in range(next_class, next_class + classes_per_stage) if c in spec.classes
        )
        next_class += classes_per_stage
        schedule.append(AddModel(f"m{k}", spec, classes=classes))
        schedule.append(Observe(observe_per_class))
        schedule.append(Evaluate(label=f"stage{k + 1}"))
    return schedule


class OnlineSession:
    """Replays a schedule against one growing glue."""

    def __init__(self, config: OnlineConfig):
        self.config = config
        self.glue = GlueModel(ClassRegistry(config.seed, config.dim), seed=config.seed)
        self.specs: dict[str, SyntheticNetworkSpec] = {}
        self.intro_order: list[int] = []
        self.next_train_id: dict[int, int] = {}
        self.history: list[dict] = []
        self.events_applied: list[dict] = []
        # (member name, class) -> (encoder, read-only held-out words). Never
        # saved: a loaded session refills it on its first Evaluate.
        self._held_out: dict[tuple[str, int], tuple] = {}

    # -- event dispatch --------------------------------------------------

    def apply(self, event) -> None:
        if isinstance(event, AddModel):
            self._apply_add(event)
        elif isinstance(event, Observe):
            self._apply_observe(event)
        elif isinstance(event, Evaluate):
            self._apply_evaluate(event)
        else:
            raise InvalidValueError(f"unknown event type {type(event).__name__}")
        self._book(event)

    def _book(self, event) -> None:
        """Log an applied event and keep what later events read: each
        member's source, the introduced classes and their next training ids.
        A loaded session rebuilds all of it from its event log."""
        if isinstance(event, AddModel):
            self.specs[event.name] = event.spec
            for c in event.classes:
                self.intro_order.append(c)
                self.next_train_id[c] = 0
        elif isinstance(event, Observe):
            for c in self.intro_order:
                self.next_train_id[c] += event.per_class
        self.events_applied.append(event_to_dict(event))

    def run(self, schedule) -> None:
        for event in schedule:
            self.apply(event)

    def _apply_add(self, event: AddModel) -> None:
        if event.name in self.specs:
            raise InvalidValueError(f"model name {event.name!r} already used")
        for c in event.classes:
            if c in self.next_train_id:
                raise InvalidValueError(f"class {c} was already introduced")
            if c not in event.spec.classes:
                raise InvalidValueError(f"class {c} is not in the model's source")
        enc_cfg = EncoderConfig(
            length=event.spec.length,
            dim=self.config.dim,
            num_levels=self.config.num_levels,
            seed=event.spec.seed,
        )
        model = HILModel(enc_cfg, self.glue.registry)
        self.glue.add_model(model, weight=event.weight, name=event.name)
        # Held-out sets are pinned at introduction time by the addressing
        # scheme itself: test ids 0..test_per_class-1 never shift.

    def _apply_observe(self, event: Observe) -> None:
        if not self.intro_order:
            raise InvalidValueError("observe before any class was introduced")
        for name in self.glue.active_names():
            spec = self.specs[name]
            rows, labels = [], []
            for c in self.intro_order:
                start = self.next_train_id[c]
                rows.append(spec.batch("train", c, range(start, start + event.per_class)))
                labels.extend([c] * event.per_class)
            self.glue.update_member(name, np.vstack(rows), labels)

    def _apply_evaluate(self, event: Evaluate) -> None:
        if not self.intro_order:
            raise InvalidValueError("evaluate before any class was introduced")
        # a seated member with no term yet is never scored: encode nothing for it
        names = [n for n in self.glue.active_names() if self.glue.member(n).vector is not None]
        per_class = {}
        total_correct = 0
        for c in self.intro_order:
            picks, _, _ = self.glue.predict_words({n: self._held_out_words(n, c) for n in names})
            correct = int((picks == c).sum())
            per_class[str(c)] = correct / self.config.test_per_class
            total_correct += correct
        self.history.append({
            "label": event.label or f"eval{len(self.history) + 1}",
            "after_events": len(self.events_applied) + 1,
            "classes": list(self.intro_order),
            "per_class": per_class,
            "overall": total_correct / (len(self.intro_order) * self.config.test_per_class),
        })

    def _held_out_words(self, name: str, c: int) -> np.ndarray:
        """Member ``name``'s encoding of class ``c``'s held-out rows, made once.

        Test ids never shift and names are never reused, so an entry stays
        valid while the member answers through the encoder that made it.
        """
        encoder = self.glue.member(name).encoder
        cached = self._held_out.get((name, c))
        if cached is None or cached[0] is not encoder:
            words = encoder.encode_batch(
                self.specs[name].batch("test", c, range(self.config.test_per_class)))
            cached = self._held_out[name, c] = (encoder, words)
        return cached[1]

    # -- bookkeeping -----------------------------------------------------

    def state_digest(self) -> str:
        """BLAKE2b-128 hex of the session's saved bytes: equal digests, equal files."""
        return state_digest(self)


def session_run(schedule, config: OnlineConfig) -> OnlineSession:
    session = OnlineSession(config)
    session.run(schedule)
    return session


def history_table_csv(history) -> str:
    """History as a class-by-stage accuracy grid; blank before introduction."""
    all_classes = sorted({c for rec in history for c in rec["classes"]})
    buf = io.StringIO()
    buf.write("class," + ",".join(rec["label"] for rec in history) + "\n")
    for c in all_classes:
        cells = []
        for rec in history:
            v = rec["per_class"].get(str(c))
            cells.append("" if v is None else f"{v:.4f}")
        buf.write(f"{c}," + ",".join(cells) + "\n")
    buf.write("all," + ",".join(f"{rec['overall']:.4f}" for rec in history) + "\n")
    return buf.getvalue()
