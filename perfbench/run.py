"""hdglue benchmark: its workloads' end-to-end metrics, and a traced per-layer run.

    python3 perfbench/run.py --workload online-replay --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 50 --trace 1

Run from the root of a checkout; the package is imported from its ``src``
directory. ``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a separate traced run. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``. ``--workload all`` runs every workload in its own process and
ends with one such object per workload. Results, and the spans of a traced
run, are also written under ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import glob
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")

# One round of operations. A run repeats whole rounds until --seconds have
# passed, so every metric samples the whole run, not one stretch of it.
ROUND = (("setup", 1), ("replay", 1), ("batch_query", 3), ("single_query", 300),
         ("cold_query", 3))
MIN_ROUNDS = 4
# Untimed operations that warm each path once, before the first round.
WARMUP = {"setup": 1, "batch_query": 2, "single_query": 50, "cold_query": 2}
# The traced run does a fixed number of rounds, so its counts repeat exactly.
TRACED_ROUNDS = 2
PROBE_REPEATS = 3


def import_package():
    """Import hdglue from this checkout's src, and nowhere else."""
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    try:
        import hdglue
    except ImportError as e:
        raise SystemExit(f"cannot import hdglue from {SRC}: {e}")
    if not os.path.abspath(hdglue.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"hdglue imported from {hdglue.__file__}, not from {SRC}")


def blas_threads() -> str:
    import numpy as np

    libs = glob.glob(os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                                  "numpy.libs", "libscipy_openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        fn = getattr(lib, "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            fn.restype = ctypes.c_int
            return str(fn())
    return "unknown"


def fingerprint() -> dict:
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "cpu": cpu,
    }


# -- set-up ----------------------------------------------------------------


def setup_probe(workload: str, seed: int, small: bool) -> float:
    """Wall seconds from starting a fresh process to its built inputs."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", workload, "--seed", str(seed)] + (["--small"] if small else [])
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        line = proc.stdout.readline()
        took = time.perf_counter() - t0
        proc.stdout.close()
        if proc.wait(timeout=60) != 0 or line.strip() != "ready":
            raise SystemExit(f"set-up probe failed: {line!r}")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    return took


# -- timed phases ----------------------------------------------------------


class Phases:
    """Runs the rounds of one workload and keeps every duration."""

    def __init__(self, work, probe=None):
        self.work = work
        self.probe = probe  # times one fresh set-up; the traced run has none
        self.attempted = 0
        self.done = dict.fromkeys(WARMUP, 0)
        self.samples: dict[str, list[float]] = {phase: [] for phase, _ in ROUND}
        self.train_s: list[float] = []
        self.batch_rows: list[int] = []
        self.fleet_rounds: list[int] = []
        self.span = None

    def warm(self) -> None:
        """The first replay, untimed: it serves the queries and feeds the checks."""
        self.attempted += 1
        _, self.state = self.work.replay(record=True)
        self.work.serve(self.state)
        self.blob = self.state["blob"]
        for phase, count in WARMUP.items():
            if phase != "setup" or self.probe:
                for _ in range(count):
                    self.op(phase)
        self.batch_rows.clear()

    def op(self, phase: str) -> float:
        """One operation; returns its wall seconds."""
        w = self.work
        self.attempted += 1
        if phase == "setup":
            return self.probe()
        t0 = time.perf_counter()
        if phase == "replay":
            train_s, state = w.replay(span=self.span)
            took = time.perf_counter() - t0
            self.train_s.append(train_s)
            if "fleet" in state:
                self.fleet_rounds.append(len(state["fleet"].rounds))
            return took
        i = self.done[phase]
        self.done[phase] += 1
        if phase == "batch_query":
            rows = w.query_batch(i)
            took = time.perf_counter() - t0
            self.batch_rows.append(rows)
            return took
        if phase == "single_query":
            w.query_one(i)
        else:
            w.cold(self.blob, i)
        return time.perf_counter() - t0

    def round(self, around=None) -> None:
        """One round; ``around(phase)``, if given, is entered around each phase."""
        for phase, count in ROUND:
            if phase == "setup" and not self.probe:
                continue
            gc.collect()
            with around(phase) if around else contextlib.nullcontext():
                for _ in range(count):
                    self.samples[phase].append(self.op(phase))


def end_to_end(work, phases: Phases) -> tuple[dict, dict]:
    single_ms = [t * 1000.0 for t in phases.samples["single_query"]]
    batch = phases.samples["batch_query"]
    p50, p90, p99 = (statistics.quantiles(single_ms, n=100)[k - 1] for k in (50, 90, 99))
    return {
        "setup_s": (statistics.median(phases.samples["setup"]), "s"),
        "train_rows_per_s": (work.train_rows / statistics.median(phases.train_s), "rows/s"),
        # Total rows over total seconds: a batch lasts a tenth of a second, so
        # one batch's rate follows the machine's momentary speed, which flips
        # between two levels; the sum follows it smoothly.
        "query_rows_per_s": (sum(phases.batch_rows) / sum(batch), "rows/s"),
        "query_ms_p50": (p50, "ms"),
        "query_ms_p90": (p90, "ms"),
        "cold_query_ms": (statistics.median(phases.samples["cold_query"]) * 1000.0, "ms"),
        "replay_s": (statistics.median(phases.samples["replay"]), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }, {"query_ms_p99": p99, "samples": phases.samples}


# -- traced run ------------------------------------------------------------


def batch_probe(work) -> tuple[float, float]:
    """One direct encode_batch over the training rows: (ms/row, CPU/wall), medians."""
    encoder, rows = work.probe()
    encoder.encode_batch(rows[:8])
    gc.collect()
    per_row, ratio = [], []
    for _ in range(PROBE_REPEATS):
        w0, c0 = time.perf_counter(), time.process_time()
        encoder.encode_batch(rows)
        wall, cpu = time.perf_counter() - w0, time.process_time() - c0
        per_row.append(wall * 1000.0 / len(rows))
        ratio.append(cpu / wall)
    return statistics.median(per_row), statistics.median(ratio)


def traced_run(workload_cls, seed: int, small: bool):
    """Fixed work under spans; returns the workload, its per-layer metrics, the
    tracer and the phases (whose first replay feeds the checks)."""
    from spans import Instrumentation, Tracer

    tracer = Tracer()
    inst = Instrumentation(tracer)
    with inst.active(), tracer.span("phase.setup"):
        work = workload_cls(seed, small=small)
    phases = Phases(work)
    phases.warm()
    single_spans = []

    @contextlib.contextmanager
    def traced(phase):
        first = len(tracer.start)
        with inst.active(), tracer.span("phase." + phase):
            yield
        if phase == "single_query":
            single_spans.append((first, len(tracer.start)))

    # A plain replay before each traced round; the two medians give the overhead.
    plain = []
    for _ in range(TRACED_ROUNDS):
        gc.collect()
        phases.span = None
        plain.append(phases.op("replay"))
        phases.span = tracer.span
        phases.round(traced)

    probe_ms, probe_ratio = batch_probe(work)
    summary = tracer.summary()

    def calls(name):
        return summary.get(name, (0, 0.0, 0.0))[0]

    def self_ms(name):
        return summary.get(name, (0, 0.0, 0.0))[2] * 1000.0

    def total_ms(name):
        return summary.get(name, (0, 0.0, 0.0))[1] * 1000.0

    def ratio(a, b):
        return a / b if b else 0.0

    c = tracer.counts
    finalize_id = tracer.names.index("bundling.finalize") if "bundling.finalize" in tracer.names else -1
    single_finalizes = sum(
        tracer.name_id[first:last].count(finalize_id) for first, last in single_spans)
    encode_calls = calls("encoding.encode") + calls("encoding.encode_batch")
    encoded_rows = c["encoding.encode.rows"] + c["encoding.encode_batch.rows"]
    builds = calls("encoding.encoder_build")
    metrics = {
        "encoding.encode.calls": (calls("encoding.encode"), "count"),
        "encoding.encode.ms": (self_ms("encoding.encode"), "ms"),
        "encoding.encode_batch.rows": (c["encoding.encode_batch.rows"], "rows"),
        "encoding.encode_batch.ms": (self_ms("encoding.encode_batch"), "ms"),
        "encoding.rows_per_encode_call": (ratio(encoded_rows, encode_calls), "rows/call"),
        "encoding.batch_probe.ms_per_row": (probe_ms, "ms/row"),
        "encoding.batch_probe.cpu_per_wall": (probe_ratio, "ratio"),
        "encoding.encoder_build.calls": (builds, "count"),
        "encoding.encoder_build.ms": (self_ms("encoding.encoder_build"), "ms"),
        "encoding.encoder_build.distinct_ratio": (
            ratio(len(tracer.keys["encoding.encoder_build"]), builds), "ratio"),
        "encoding.first_encode.ms": (c["encoding.first_encode.s"] * 1000.0, "ms"),
        "hv.random_hv.calls": (calls("hv.random_hv"), "count"),
        "hv.random_hv.ms": (self_ms("hv.random_hv"), "ms"),
        "hv.random_table.ms": (self_ms("hv.random_table"), "ms"),
        "kernels.hamming_matrix.calls": (calls("kernels.hamming_matrix"), "count"),
        "kernels.hamming_matrix.pairs": (c["kernels.hamming_matrix.pairs"], "count"),
        "kernels.hamming_matrix.ms": (self_ms("kernels.hamming_matrix"), "ms"),
        "bundling.add.calls": (calls("bundling.add"), "count"),
        "bundling.sub.calls": (calls("bundling.sub"), "count"),
        "bundling.tally.ms": (self_ms("bundling.add") + self_ms("bundling.sub"), "ms"),
        "bundling.finalize.calls": (calls("bundling.finalize"), "count"),
        "bundling.finalize.ms": (self_ms("bundling.finalize"), "ms"),
        "bundling.finalize_per_query": (
            ratio(single_finalizes, len(phases.samples["single_query"])), "calls/query"),
        "hil.update.ms": (self_ms("hil.update"), "ms"),
        "hil.update_encoded.ms": (self_ms("hil.update_encoded"), "ms"),
        "glue.member_similarities.ms": (self_ms("glue.member_similarities"), "ms"),
        "glue.combine.ms": (self_ms("glue.combine"), "ms"),
        "glue.fleet.models_built": (
            ratio(c["glue.fleet.models_built"], calls("glue.fleet_correct")), "count"),
        "glue.fleet.rounds_kept": (
            statistics.mean(phases.fleet_rounds) if phases.fleet_rounds else 0, "count"),
        "glue.error_fleet_predict.ms": (self_ms("glue.error_fleet_predict"), "ms"),
        "online.add_model.ms": (total_ms("online.add_model"), "ms"),
        "online.observe.ms": (total_ms("online.observe"), "ms"),
        "online.evaluate.ms": (total_ms("online.evaluate"), "ms"),
        "online.churn.ms": (total_ms("online.churn"), "ms"),
        "data_io.model_to_bytes.ms": (self_ms("data_io.model_to_bytes"), "ms"),
        "data_io.model_from_bytes.ms": (self_ms("data_io.model_from_bytes"), "ms"),
        "data_io.model_bytes": (len(phases.blob), "bytes"),
        "data_io.synthetic.rows": (c["data_io.synthetic.rows"], "rows"),
        "data_io.synthetic.ms": (self_ms("data_io.synthetic"), "ms"),
        "data_io.synthetic.distinct_ratio": (
            ratio(len(tracer.keys["data_io.synthetic"]), c["data_io.synthetic.rows"]), "ratio"),
        "trace.overhead_pct": (
            (statistics.median(phases.samples["replay"]) / statistics.median(plain) - 1.0) * 100.0,
            "%"),
    }
    for phase in ("setup", "replay", "batch_query", "single_query", "cold_query"):
        metrics[f"{phase}.unattributed_ms"] = (self_ms("phase." + phase), "ms")
    return work, metrics, tracer, phases


# -- one workload ----------------------------------------------------------


def run_workload(args) -> int:
    from workloads import WORKLOADS

    workload_cls = WORKLOADS[args.workload]
    info = {"fingerprint": fingerprint()}
    if args.trace:
        work, metrics, tracer, phases = traced_run(workload_cls, args.seed, args.small)
    else:
        work = workload_cls(args.seed, small=args.small)
        phases = Phases(work, lambda: setup_probe(args.workload, args.seed, args.small))
        phases.warm()
        rounds, start = 0, time.perf_counter()
        while rounds < (1 if args.small else MIN_ROUNDS) or time.perf_counter() - start < args.seconds:
            phases.round()
            rounds += 1
        metrics, extra = end_to_end(work, phases)
        extra["rounds"] = rounds
        info.update(extra)
    outcome = work.verify(phases.state)
    failed = sum(not ok for ok in outcome.values())
    result = {
        "correct": failed == 0,
        "attempted": phases.attempted + len(outcome),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }

    os.makedirs(RESULTS, exist_ok=True)
    stem = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w") as f:
        json.dump({**result, "checks": outcome, **info}, f, indent=1, sort_keys=True)
    if args.trace:
        tracer.save(stem + "-spans.npz")

    fp = info["fingerprint"]
    print(f"# {args.workload} seed {args.seed}: nproc {fp['nproc']}, python {fp['python']}, "
          f"numpy {fp['numpy']}, {fp['blas']} with {fp['blas_threads']} threads")
    for name, ok in outcome.items():
        print(f"check {name}: {'pass' if ok else 'FAIL'}")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload}/{name} = {value:.6g} {unit}")
    if "query_ms_p99" in info:
        print(f"{args.workload}/query_ms_p99 = {info['query_ms_p99']:.6g} ms (reference only)")
    print(f"{args.workload}: attempted {result['attempted']}, failed {failed}")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in a fresh process; one table, then one JSON per workload."""
    from workloads import WORKLOADS

    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--small"] if args.small else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"workload {name} exited with {proc.returncode}")
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="few rows per workload, for the benchmark's own tests")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    import_package()
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)} or all")
    if args.setup_probe:
        WORKLOADS[args.workload](args.seed, small=args.small)
        print("ready", flush=True)
        return 0
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
