"""Command line front end.

Every subcommand resolves its configuration up front, runs, and writes one
metrics JSON whose only nondeterministic fields are wall_time_ms and the
per-stage timings_ms; re-running the embedded config reproduces every other
number. Output files are written atomically. Exit codes: 0 success, 1
runtime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .data_io import (
    EmbeddingDataset,
    SyntheticNetworkSpec,
    _read_text,
    atomic_write_text,
    default_spec,
    load_dataset_binary,
    load_dataset_csv,
    load_model,
    save_dataset_binary,
    save_dataset_csv,
    save_model,
    specialist_specs,
)
from .encoding import EncoderConfig
from .errors import DataFormatError, HDGlueError, InvalidValueError
from .glue import ErrorFleet, GlueModel, fleet_correct
from .hil import ClassRegistry, HILModel
from .online import (
    Evaluate,
    OnlineConfig,
    OnlineSession,
    history_table_csv,
    schedule_from_json,
    schedule_to_json,
    staged_schedule,
)

DEFAULT_BENCH_DIMS = (2000, 4000, 8000, 12000)


def _env_seed() -> int:
    raw = os.environ.get("HDGLUE_SEED")
    if raw is None:
        return 0
    try:
        return int(raw)
    except ValueError:
        raise InvalidValueError(f"HDGLUE_SEED must be an integer, got {raw!r}") from None


def _load_dataset(path: str) -> EmbeddingDataset:
    if path.endswith(".csv"):
        return load_dataset_csv(path)
    return load_dataset_binary(path)


def _save_dataset(ds: EmbeddingDataset, path: str) -> None:
    if path.endswith(".csv"):
        save_dataset_csv(ds, path)
    else:
        save_dataset_binary(ds, path)


class _Stopwatch:
    """Wall time since the run started, and per stage: ``with watch("encode"): ...``.

    Stages: load (read or generate inputs), encode (signals to hypervectors
    outside a training or prediction call), train, score, combine (the glue's
    weighted sum) and save. Every stage is reported, 0 where a run has none.
    """

    STAGES = ("load", "encode", "train", "score", "combine", "save")

    def __init__(self):
        self.start = time.perf_counter()
        self.ms = dict.fromkeys(self.STAGES, 0.0)

    @contextlib.contextmanager
    def __call__(self, stage: str):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.ms[stage] += (time.perf_counter() - t0) * 1000.0


def _write_metrics(path: str, command: str, config: dict, body: dict,
                   watch: _Stopwatch) -> None:
    metrics = {
        "command": command,
        "config": dict(config, version=__version__),
        **body,
        "timings_ms": watch.ms,
        "wall_time_ms": (time.perf_counter() - watch.start) * 1000.0,
    }
    atomic_write_text(path, json.dumps(metrics, indent=2, sort_keys=True) + "\n")


def _training_setup(args, watch: _Stopwatch):
    """What ``train`` and ``correct`` share: the training set, its encoder
    config, the class registry and the metrics config fields they agree on."""
    with watch("load"):
        train = _load_dataset(args.data)
    registry = ClassRegistry(args.registry_seed if args.registry_seed is not None else args.seed,
                             args.dim)
    cfg = EncoderConfig(length=train.length, dim=args.dim, num_levels=args.levels, seed=args.seed)
    config = {"data": args.data, "dim": args.dim, "levels": args.levels, "seed": args.seed}
    return train, cfg, registry, config


def _train_model(watch: _Stopwatch, ds: EmbeddingDataset, cfg: EncoderConfig,
                 registry: ClassRegistry) -> HILModel:
    """A model trained on ``ds``, its encode and its tally timed apart."""
    if not len(ds):
        raise InvalidValueError("training needs at least one example")
    with watch("encode"):
        model = HILModel(cfg, registry)
        words = model.encoder.encode_batch(ds.values)
    with watch("train"):
        model.update_encoded(words, ds.labels.tolist())
    return model


def _accuracy_report(picks: np.ndarray, labels: np.ndarray) -> dict:
    per_class = {}
    for c in sorted(set(labels.tolist())):
        mask = labels == c
        per_class[str(int(c))] = float((picks[mask] == c).mean())
    return {
        "per_class_accuracy": per_class,
        "overall_accuracy": float((picks == labels).mean()),
    }


# -- subcommands ---------------------------------------------------------
#
# Each takes the parsed arguments and the run's stopwatch, and returns its
# default metrics path, its config and its metrics body; ``main`` writes them.


def cmd_gen_synth(args, watch: _Stopwatch):
    with watch("load"):
        if args.spec:
            try:
                raw = json.loads(_read_text(args.spec))
            except json.JSONDecodeError as e:
                raise DataFormatError(f"{args.spec}: bad spec JSON: {e}") from None
            spec = SyntheticNetworkSpec.from_json_dict(raw)
        else:
            spec = default_spec(seed=args.seed, n_classes=args.classes, length=args.length)
        train = spec.dataset("train", args.train)
        test = spec.dataset("test", args.test)
    ext = "csv" if args.csv else "hdge"
    train_path = os.path.join(args.out, f"train.{ext}")
    test_path = os.path.join(args.out, f"test.{ext}")
    with watch("save"):
        os.makedirs(args.out, exist_ok=True)
        _save_dataset(train, train_path)
        _save_dataset(test, test_path)
        atomic_write_text(
            os.path.join(args.out, "spec.json"),
            json.dumps(spec.to_json_dict(), indent=2, sort_keys=True) + "\n",
        )
    config = {
        "seed": args.seed,
        "spec_hash": spec.content_hash(),
        "train_per_class": args.train,
        "test_per_class": args.test,
        "format": ext,
    }
    body = {
        "train_examples": len(train),
        "test_examples": len(test),
        "files": [train_path, test_path],
    }
    return os.path.join(args.out, "metrics.json"), config, body


def cmd_train(args, watch: _Stopwatch):
    train, cfg, registry, config = _training_setup(args, watch)
    model = _train_model(watch, train, cfg, registry)
    with watch("save"):
        save_model(model, args.out)
    body = {"classes": model.labels(), "examples": int(sum(model.example_counts.values()))}
    if args.test:
        body.update(_test_report(watch, model, args.test))
    return args.out + ".metrics.json", dict(config, registry_seed=registry.seed), body


def _test_report(watch: _Stopwatch, model: HILModel | ErrorFleet, path: str) -> dict:
    """Accuracy on the dataset at ``path``; a fleet also counts its memory decisions."""
    fleet = isinstance(model, ErrorFleet)
    encoder = model.rounds[0].hil.encoder if fleet else model.encoder
    with watch("load"):
        test = _load_dataset(path)
    with watch("encode"):
        words = encoder.encode_batch(test.values)
    with watch("score"):
        out = model.predict_words(words)
        report = _accuracy_report(out[0], test.labels)
        if fleet:
            report["memory_decisions"] = out[1].count("memory")
    return report


def cmd_eval(args, watch: _Stopwatch):
    with watch("load"):
        model = load_model(args.model)
    if not isinstance(model, (HILModel, ErrorFleet)):
        raise InvalidValueError(
            f"eval expects a single-source model file, got {type(model).__name__}"
        )
    report = _test_report(watch, model, args.data)
    return args.model + ".eval.json", {"model": args.model, "data": args.data}, report


def cmd_glue(args, watch: _Stopwatch):
    if args.data and len(args.data) != len(args.models):
        raise InvalidValueError("--data must list one dataset per model")
    with watch("load"):
        models = [load_model(p) for p in args.models]
    for p, m in zip(args.models, models):
        if not isinstance(m, HILModel):
            raise InvalidValueError(f"{p} is not a single-source model file")
    weights = args.weights or [1.0] * len(models)
    if len(weights) != len(models):
        raise InvalidValueError("--weights must list one weight per model")
    names = [f"m{i}" for i in range(len(models))]
    with watch("train"):
        glue = GlueModel.build(models, weights=weights, names=names, seed=args.seed)
        for name in args.drop or []:
            glue.remove_model(name)
    with watch("save"):
        save_model(glue, args.out)
    config = {
        "models": list(args.models),
        "weights": weights,
        "dropped": list(args.drop or []),
        "seed": args.seed,
    }
    body = {"members": glue.active_names(), "classes": glue.class_labels()}
    if args.data:
        with watch("load"):
            tests = [_load_dataset(p) for p in args.data]
        labels = tests[0].labels
        for ds in tests[1:]:
            if not np.array_equal(ds.labels, labels):
                raise InvalidValueError("member datasets disagree on query labels")
        embeddings = {n: ds.values for n, ds in zip(names, tests) if n in glue.active_names()}
        with watch("score"):
            mnames, morder, sims = glue.member_similarities(embeddings)
            body["per_member_scores"] = {
                n: {str(c): float(sims[i, :, j].mean()) for j, c in enumerate(morder)}
                for i, n in enumerate(mnames)
            }
        with watch("combine"):
            picks, _ = glue.combine(mnames, morder, sims)
            body.update(_accuracy_report(picks, labels))
    return args.out + ".metrics.json", config, body


def cmd_correct(args, watch: _Stopwatch):
    train, cfg, registry, config = _training_setup(args, watch)
    with watch("train"):  # fleet_correct encodes its rows itself
        fleet = fleet_correct(
            train.values, train.labels.tolist(), cfg, registry,
            max_rounds=args.rounds, residual_memory=args.memory,
            memory_threshold=args.threshold, glue_seed=args.seed,
        )
    with watch("save"):
        save_model(fleet, args.out)
    config.update(rounds_cap=args.rounds, memory=bool(args.memory),
                  memory_threshold=args.threshold)
    body = {
        "rounds": len(fleet.rounds),
        "round_weights": fleet.round_weights(),
        "round_subsets": [r.subset_size for r in fleet.rounds],
        "training_accuracy": fleet.training_accuracy,
        "memory_size": len(fleet.memory_labels),
    }
    if args.test:
        body.update(_test_report(watch, fleet, args.test))
    return args.out + ".metrics.json", config, body


def cmd_online_sim(args, watch: _Stopwatch):
    with watch("load"):
        if args.schedule:
            schedule = schedule_from_json(_read_text(args.schedule))
        else:
            specs = specialist_specs(seed=args.seed, n_models=args.models,
                                     n_classes=args.models * args.classes_per_stage)
            schedule = staged_schedule(specs, classes_per_stage=args.classes_per_stage,
                                       observe_per_class=args.observe)
    session = OnlineSession(OnlineConfig(dim=args.dim, num_levels=args.levels, seed=args.seed,
                                         test_per_class=args.test))
    for event in schedule:
        with watch("score" if isinstance(event, Evaluate) else "train"):
            session.apply(event)
    with watch("save"):
        os.makedirs(args.out, exist_ok=True)
        atomic_write_text(os.path.join(args.out, "schedule.json"),
                          schedule_to_json(schedule) + "\n")
        atomic_write_text(os.path.join(args.out, "history.csv"),
                          history_table_csv(session.history))
        if args.snapshot:
            save_model(session, os.path.join(args.out, "session.hdgm"))
        digest = session.state_digest()  # a hash of the saved container bytes
    config = {
        "dim": args.dim,
        "levels": args.levels,
        "seed": args.seed,
        "test_per_class": args.test,
        "schedule": args.schedule or "staged-default",
        "events": len(session.events_applied),
    }
    body = {
        "history": session.history,
        "final_overall_accuracy": session.history[-1]["overall"] if session.history else None,
        "state_digest": digest,
    }
    return os.path.join(args.out, "metrics.json"), config, body


def cmd_bench(args, watch: _Stopwatch):
    dims = args.dims or list(DEFAULT_BENCH_DIMS)
    with watch("load"):
        specs = specialist_specs(seed=args.seed, n_models=args.models)
        trains = [spec.dataset("train", args.train) for spec in specs]
        tests = [spec.dataset("test", args.test) for spec in specs]
    n_classes = len(specs[0].classes)
    labels = tests[0].labels
    results = {}
    for dim in dims:
        registry = ClassRegistry(args.seed, dim)
        members = []
        for spec, train in zip(specs, trains):
            cfg = EncoderConfig(length=spec.length, dim=dim, num_levels=args.levels,
                                seed=spec.seed)
            members.append(_train_model(watch, train, cfg, registry))
        with watch("train"):
            glue = GlueModel.build(members, seed=args.seed)
        names = glue.active_names()
        embeddings = {n: ds.values for n, ds in zip(names, tests)}
        t_enc = time.perf_counter()
        with watch("score"):
            mnames, morder, sims = glue.member_similarities(embeddings)
        with watch("combine"):
            picks, _ = glue.combine(mnames, morder, sims)
        predict_ms = (time.perf_counter() - t_enc) * 1000.0 / len(labels)
        results[str(dim)] = {
            "overall_accuracy": float((picks == labels).mean()),
            "glue_predict_ms_per_query": predict_ms,
        }
    config = {
        "dims": dims,
        "seed": args.seed,
        "levels": args.levels,
        "models": args.models,
        "train_per_class": args.train,
        "test_per_class": args.test,
    }
    for dim in dims:
        r = results[str(dim)]
        print(f"dim {dim:>6}: accuracy {r['overall_accuracy']:.4f}  "
              f"predict {r['glue_predict_ms_per_query']:.2f} ms/query")
    return args.out or "bench.json", config, {"per_dim": results, "classes": n_classes}


# -- argument plumbing ---------------------------------------------------


def _comma_list(convert):
    """An argparse ``type`` reading a comma-separated list of ``convert`` values;
    a malformed item is a usage error."""
    def parse(text: str) -> list:
        try:
            return [convert(item) for item in text.split(",")]
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected comma-separated {convert.__name__} values, got {text!r}") from None
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hdglue",
        description="Encode classifier signals as binary hypervectors, train, fuse, correct.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, out_required=True, encoder=False):
        p.add_argument("--seed", type=int, default=_env_seed(),
                       help="master seed (default: $HDGLUE_SEED or 0)")
        if encoder:
            p.add_argument("--dim", type=int, default=10_000, help="hypervector bits")
            p.add_argument("--levels", type=int, default=65, help="quantization levels")
        p.add_argument("--metrics", help="metrics JSON path (default: next to --out)")
        if out_required:
            p.add_argument("--out", required=True, help="output path")

    p = sub.add_parser("gen-synth", help="write synthetic train/test datasets")
    common(p)
    p.add_argument("--spec", help="source spec JSON (default: built-in multi-class source)")
    p.add_argument("--classes", type=int, default=10)
    p.add_argument("--length", type=int, default=32)
    p.add_argument("--train", type=int, default=100, help="training examples per class")
    p.add_argument("--test", type=int, default=100, help="test examples per class")
    p.add_argument("--csv", action="store_true", help="write CSV instead of binary")
    p.set_defaults(fn=cmd_gen_synth)

    p = sub.add_parser("train", help="train a model on one dataset")
    common(p, encoder=True)
    p.add_argument("--data", required=True, help="training dataset (.hdge or .csv)")
    p.add_argument("--test", help="optional test dataset for accuracy reporting")
    p.add_argument("--registry-seed", type=int, help="class ID seed (default: --seed)")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate a saved model on a dataset")
    p.add_argument("--metrics", help="metrics JSON path")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("glue", help="fuse trained models into one consensus model")
    common(p)
    p.add_argument("--models", nargs="+", required=True, help="member model files")
    p.add_argument("--weights", type=_comma_list(float), help="comma-separated member weights")
    p.add_argument("--data", nargs="*", help="per-member test datasets, aligned with --models")
    p.add_argument("--drop", action="append", help="remove a member after building (repeatable)")
    p.set_defaults(fn=cmd_glue)

    p = sub.add_parser("correct", help="train corrective rounds on a dataset")
    common(p, encoder=True)
    p.add_argument("--data", required=True)
    p.add_argument("--test", help="optional test dataset")
    p.add_argument("--registry-seed", type=int)
    p.add_argument("--rounds", type=int, default=8, help="round cap")
    p.add_argument("--memory", action="store_true", help="store stubborn examples for recall")
    p.add_argument("--threshold", type=float, default=0.95, help="memory match similarity")
    p.set_defaults(fn=cmd_correct)

    p = sub.add_parser("online-sim", help="replay a model/class arrival schedule")
    common(p, encoder=True)
    p.add_argument("--schedule", help="schedule JSON (default: staged specialist protocol)")
    p.add_argument("--models", type=int, default=5, help="staged default: number of models")
    p.add_argument("--classes-per-stage", type=int, default=2)
    p.add_argument("--observe", type=int, default=100, help="training examples per class per stage")
    p.add_argument("--test", type=int, default=100, help="held-out examples per class")
    p.add_argument("--snapshot", action="store_true", help="also save the final session state")
    p.set_defaults(fn=cmd_online_sim)

    # No abbreviations here, so a stray --dim is refused instead of read as --dims.
    p = sub.add_parser("bench", help="accuracy and latency across dimensions", allow_abbrev=False)
    common(p, out_required=False)
    p.add_argument("--levels", type=int, default=65, help="quantization levels")
    p.add_argument("--out", help="metrics JSON path (default: bench.json)")
    p.add_argument("--dims", type=_comma_list(int),
                   help=f"comma-separated dims (default {','.join(map(str, DEFAULT_BENCH_DIMS))})")
    p.add_argument("--models", type=int, default=5)
    p.add_argument("--train", type=int, default=40, help="training examples per class")
    p.add_argument("--test", type=int, default=40, help="test examples per class")
    p.set_defaults(fn=cmd_bench)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    watch = _Stopwatch()
    try:
        default_metrics, config, body = args.fn(args, watch)
        _write_metrics(args.metrics or default_metrics, args.command, config, body, watch)
        return 0
    except HDGlueError as e:
        print(f"hdglue: error: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"hdglue: i/o error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
