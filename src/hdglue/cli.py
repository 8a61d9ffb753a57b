"""Command line front end.

Every subcommand resolves its configuration up front, runs, and writes one
metrics JSON whose only nondeterministic field is wall_time_ms; re-running
the embedded config reproduces every other number. Output files are
written atomically. Exit codes: 0 success, 1 runtime failure, 2 usage
error.
"""

from __future__ import annotations

import argparse
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
    OnlineConfig,
    history_table_csv,
    schedule_from_json,
    schedule_to_json,
    session_run,
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


def _write_metrics(path: str, command: str, config: dict, body: dict, t0: float) -> None:
    metrics = {
        "command": command,
        "config": dict(config, version=__version__),
        **body,
        "wall_time_ms": (time.perf_counter() - t0) * 1000.0,
    }
    atomic_write_text(path, json.dumps(metrics, indent=2, sort_keys=True) + "\n")


def _metrics_path(args, fallback: str) -> str:
    if args.metrics:
        return args.metrics
    return fallback


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


def cmd_gen_synth(args) -> int:
    t0 = time.perf_counter()
    if args.spec:
        try:
            raw = json.loads(_read_text(args.spec))
        except json.JSONDecodeError as e:
            raise DataFormatError(f"{args.spec}: bad spec JSON: {e}") from None
        spec = SyntheticNetworkSpec.from_json_dict(raw)
    else:
        spec = default_spec(seed=args.seed, n_classes=args.classes, length=args.length)
    os.makedirs(args.out, exist_ok=True)
    ext = "csv" if args.csv else "hdge"
    train = spec.dataset("train", args.train)
    test = spec.dataset("test", args.test)
    train_path = os.path.join(args.out, f"train.{ext}")
    test_path = os.path.join(args.out, f"test.{ext}")
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
    _write_metrics(_metrics_path(args, os.path.join(args.out, "metrics.json")),
                   "gen-synth", config, body, t0)
    return 0


def cmd_train(args) -> int:
    t0 = time.perf_counter()
    train = _load_dataset(args.data)
    registry = ClassRegistry(args.registry_seed if args.registry_seed is not None else args.seed,
                             args.dim)
    cfg = EncoderConfig(length=train.length, dim=args.dim, num_levels=args.levels, seed=args.seed)
    model = HILModel.train(train.values, train.labels.tolist(), cfg, registry)
    save_model(model, args.out)
    config = {
        "data": args.data,
        "dim": args.dim,
        "levels": args.levels,
        "seed": args.seed,
        "registry_seed": registry.seed,
    }
    body = {"classes": model.labels(), "examples": int(sum(model.example_counts.values()))}
    if args.test:
        test = _load_dataset(args.test)
        picks, _, _ = model.predict_batch(test.values)
        body.update(_accuracy_report(picks, test.labels))
    _write_metrics(_metrics_path(args, args.out + ".metrics.json"), "train", config, body, t0)
    return 0


def cmd_eval(args) -> int:
    t0 = time.perf_counter()
    model = load_model(args.model)
    test = _load_dataset(args.data)
    if isinstance(model, HILModel):
        picks, _, _ = model.predict_batch(test.values)
    elif isinstance(model, ErrorFleet):
        picks, _ = model.predict_batch(test.values)
    else:
        raise InvalidValueError(
            f"eval expects a single-source model file, got {type(model).__name__}"
        )
    config = {"model": args.model, "data": args.data}
    _write_metrics(_metrics_path(args, args.model + ".eval.json"),
                   "eval", config, _accuracy_report(picks, test.labels), t0)
    return 0


def cmd_glue(args) -> int:
    t0 = time.perf_counter()
    if args.data and len(args.data) != len(args.models):
        raise InvalidValueError("--data must list one dataset per model")
    models = [load_model(p) for p in args.models]
    for p, m in zip(args.models, models):
        if not isinstance(m, HILModel):
            raise InvalidValueError(f"{p} is not a single-source model file")
    weights = [1.0] * len(models)
    if args.weights:
        weights = [float(w) for w in args.weights.split(",")]
        if len(weights) != len(models):
            raise InvalidValueError("--weights must list one weight per model")
    names = [f"m{i}" for i in range(len(models))]
    glue = GlueModel.build(models, weights=weights, names=names, seed=args.seed)
    for name in args.drop or []:
        glue.remove_model(name)
    save_model(glue, args.out)
    config = {
        "models": list(args.models),
        "weights": weights,
        "dropped": list(args.drop or []),
        "seed": args.seed,
    }
    body = {"members": glue.active_names(), "classes": glue.class_labels()}
    if args.data:
        tests = [_load_dataset(p) for p in args.data]
        labels = tests[0].labels
        for ds in tests[1:]:
            if not np.array_equal(ds.labels, labels):
                raise InvalidValueError("member datasets disagree on query labels")
        embeddings = {n: ds.values for n, ds in zip(names, tests) if n in glue.active_names()}
        picks, _, order = glue.predict_batch(embeddings)
        body.update(_accuracy_report(picks, labels))
        mnames, morder, sims = glue.member_similarities(embeddings)
        body["per_member_scores"] = {
            n: {str(c): float(sims[i, :, j].mean()) for j, c in enumerate(morder)}
            for i, n in enumerate(mnames)
        }
    _write_metrics(_metrics_path(args, args.out + ".metrics.json"), "glue", config, body, t0)
    return 0


def cmd_correct(args) -> int:
    t0 = time.perf_counter()
    train = _load_dataset(args.data)
    registry = ClassRegistry(args.registry_seed if args.registry_seed is not None else args.seed,
                             args.dim)
    cfg = EncoderConfig(length=train.length, dim=args.dim, num_levels=args.levels, seed=args.seed)
    fleet = fleet_correct(
        train.values, train.labels.tolist(), cfg, registry,
        max_rounds=args.rounds, residual_memory=args.memory,
        memory_threshold=args.threshold, glue_seed=args.seed,
    )
    save_model(fleet, args.out)
    config = {
        "data": args.data,
        "dim": args.dim,
        "levels": args.levels,
        "seed": args.seed,
        "rounds_cap": args.rounds,
        "memory": bool(args.memory),
        "memory_threshold": args.threshold,
    }
    body = {
        "rounds": len(fleet.rounds),
        "round_weights": fleet.round_weights(),
        "round_subsets": [r.subset_size for r in fleet.rounds],
        "training_accuracy": fleet.training_accuracy,
        "memory_size": len(fleet.memory_labels),
    }
    if args.test:
        test = _load_dataset(args.test)
        picks, provenance = fleet.predict_batch(test.values)
        body.update(_accuracy_report(picks, test.labels))
        body["memory_decisions"] = sum(1 for p in provenance if p == "memory")
    _write_metrics(_metrics_path(args, args.out + ".metrics.json"), "correct", config, body, t0)
    return 0


def cmd_online_sim(args) -> int:
    t0 = time.perf_counter()
    if args.schedule:
        schedule = schedule_from_json(_read_text(args.schedule))
    else:
        specs = specialist_specs(seed=args.seed, n_models=args.models,
                                 n_classes=args.models * args.classes_per_stage)
        schedule = staged_schedule(specs, classes_per_stage=args.classes_per_stage,
                                   observe_per_class=args.observe)
    config_obj = OnlineConfig(dim=args.dim, num_levels=args.levels, seed=args.seed,
                              test_per_class=args.test)
    session = session_run(schedule, config_obj)
    os.makedirs(args.out, exist_ok=True)
    atomic_write_text(os.path.join(args.out, "schedule.json"), schedule_to_json(schedule) + "\n")
    atomic_write_text(os.path.join(args.out, "history.csv"), history_table_csv(session.history))
    if args.snapshot:
        save_model(session, os.path.join(args.out, "session.hdgm"))
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
        "state_digest": session.state_digest(),
    }
    _write_metrics(_metrics_path(args, os.path.join(args.out, "metrics.json")),
                   "online-sim", config, body, t0)
    return 0


def cmd_bench(args) -> int:
    t0 = time.perf_counter()
    dims = [int(d) for d in args.dims.split(",")] if args.dims else list(DEFAULT_BENCH_DIMS)
    specs = specialist_specs(seed=args.seed, n_models=args.models)
    n_classes = len(specs[0].classes)
    results = {}
    for dim in dims:
        registry = ClassRegistry(args.seed, dim)
        members = []
        for spec in specs:
            cfg = EncoderConfig(length=spec.length, dim=dim, num_levels=args.levels,
                                seed=spec.seed)
            train = spec.dataset("train", args.train)
            members.append(HILModel.train(train.values, train.labels.tolist(), cfg, registry))
        glue = GlueModel.build(members, seed=args.seed)
        names = glue.active_names()
        tests = {n: spec.dataset("test", args.test) for n, spec in zip(names, specs)}
        labels = tests[names[0]].labels
        embeddings = {n: ds.values for n, ds in tests.items()}
        t_enc = time.perf_counter()
        picks, _, _ = glue.predict_batch(embeddings)
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
    _write_metrics(_metrics_path(args, args.out or "bench.json"),
                   "bench", config, {"per_dim": results, "classes": n_classes}, t0)
    for dim in dims:
        r = results[str(dim)]
        print(f"dim {dim:>6}: accuracy {r['overall_accuracy']:.4f}  "
              f"predict {r['glue_predict_ms_per_query']:.2f} ms/query")
    return 0


# -- argument plumbing ---------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hdglue",
        description="Encode classifier signals as binary hypervectors, train, fuse, correct.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, out_required=True):
        p.add_argument("--seed", type=int, default=_env_seed(),
                       help="master seed (default: $HDGLUE_SEED or 0)")
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
    common(p)
    p.add_argument("--data", required=True, help="training dataset (.hdge or .csv)")
    p.add_argument("--test", help="optional test dataset for accuracy reporting")
    p.add_argument("--registry-seed", type=int, help="class ID seed (default: --seed)")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate a saved model on a dataset")
    p.add_argument("--seed", type=int, default=_env_seed())
    p.add_argument("--metrics", help="metrics JSON path")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("glue", help="fuse trained models into one consensus model")
    common(p)
    p.add_argument("--models", nargs="+", required=True, help="member model files")
    p.add_argument("--weights", help="comma-separated member weights")
    p.add_argument("--data", nargs="*", help="per-member test datasets, aligned with --models")
    p.add_argument("--drop", action="append", help="remove a member after building (repeatable)")
    p.set_defaults(fn=cmd_glue)

    p = sub.add_parser("correct", help="train corrective rounds on a dataset")
    common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--test", help="optional test dataset")
    p.add_argument("--registry-seed", type=int)
    p.add_argument("--rounds", type=int, default=8, help="round cap")
    p.add_argument("--memory", action="store_true", help="store stubborn examples for recall")
    p.add_argument("--threshold", type=float, default=0.95, help="memory match similarity")
    p.set_defaults(fn=cmd_correct)

    p = sub.add_parser("online-sim", help="replay a model/class arrival schedule")
    common(p)
    p.add_argument("--schedule", help="schedule JSON (default: staged specialist protocol)")
    p.add_argument("--models", type=int, default=5, help="staged default: number of models")
    p.add_argument("--classes-per-stage", type=int, default=2)
    p.add_argument("--observe", type=int, default=100, help="training examples per class per stage")
    p.add_argument("--test", type=int, default=100, help="held-out examples per class")
    p.add_argument("--snapshot", action="store_true", help="also save the final session state")
    p.set_defaults(fn=cmd_online_sim)

    p = sub.add_parser("bench", help="accuracy and latency across dimensions")
    common(p, out_required=False)
    p.add_argument("--out", help="metrics JSON path (default: bench.json)")
    p.add_argument("--dims", help=f"comma-separated dims (default {','.join(map(str, DEFAULT_BENCH_DIMS))})")
    p.add_argument("--models", type=int, default=5)
    p.add_argument("--train", type=int, default=40, help="training examples per class")
    p.add_argument("--test", type=int, default=40, help="test examples per class")
    p.set_defaults(fn=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except HDGlueError as e:
        print(f"hdglue: error: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"hdglue: i/o error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
