"""Spans around hdglue's public entry points, recorded from outside the package.

Each entry point is replaced where its callers look it up: a method on its
class, and a module function in every module that imported it by name. A
span records its name, start, end and the span that was open when it began.
Spans stay in memory (four flat arrays) and are written out once, at the
end. A span's self time is its duration minus the time its child spans
cover.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import time
from array import array

import numpy as np

import hdglue
from hdglue import _kernels, bundling, data_io, encoding, glue, hil, hv, online


class Tracer:
    """Span and counter store for one traced process."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._open = collections.Counter()
        self.counts = collections.Counter()
        self.keys = collections.defaultdict(set)

    def begin(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self._open[name] += 1
        self.start.append(time.perf_counter())
        return idx

    def finish(self, idx: int) -> float:
        self.end[idx] = now = time.perf_counter()
        self._stack.pop()
        self._open[self.names[self.name_id[idx]]] -= 1
        return now - self.start[idx]

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.begin(name)
        try:
            yield
        finally:
            self.finish(idx)

    def is_open(self, name: str) -> bool:
        return self._open[name] > 0

    def summary(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, total seconds, self seconds)."""
        n = len(self.start)
        if n == 0:
            return {}
        names = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        nested = parent >= 0
        covered = np.bincount(parent[nested], weights=dur[nested], minlength=n)
        own = dur - covered
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        total = np.bincount(names, weights=dur, minlength=k)
        self_time = np.bincount(names, weights=own, minlength=k)
        return {
            name: (int(calls[i]), float(total[i]), float(self_time[i]))
            for i, name in enumerate(self.names)
        }

    def save(self, path: str) -> None:
        np.savez_compressed(
            path,
            names=np.asarray(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )


_EVENT_SPANS = {
    online.AddModel: "online.add_model",
    online.Observe: "online.observe",
    online.Evaluate: "online.evaluate",
}


def _spanned(tracer: Tracer, name: str, fn, before=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if before is not None:
            before(*args, **kwargs)
        idx = tracer.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.finish(idx)

    return wrapper


def _first_encode(tracer: Tracer, name: str, fn, rows_of):
    """Span for an encode entry point; an encoder's first call also books
    its whole duration, lazily built operand included, as a first encode."""

    @functools.wraps(fn)
    def wrapper(self, values):
        first = "_majority" not in self.__dict__
        tracer.counts[name + ".rows"] += rows_of(values)
        idx = tracer.begin(name)
        try:
            return fn(self, values)
        finally:
            took = tracer.finish(idx)
            if first:
                tracer.counts["encoding.first_encode.s"] += took

    return wrapper


def _apply_event(tracer: Tracer, fn):
    @functools.wraps(fn)
    def wrapper(self, event):
        with tracer.span(_EVENT_SPANS.get(type(event), "online.apply")):
            return fn(self, event)

    return wrapper


class Instrumentation:
    """Installs and removes the wrappers; removal restores every original."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._saved: list[tuple[object, str, object]] = []

    def _patch(self, owner, attr: str, make) -> None:
        original = owner.__dict__[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def install(self) -> None:
        t = self.tracer

        def spanned(name, before=None):
            return lambda fn: _spanned(t, name, fn, before)

        def build(_self, config):
            t.counts["encoding.encoder_build.calls"] += 1
            t.keys["encoding.encoder_build"].add(config)

        def pairs(a, b):
            t.counts["kernels.hamming_matrix.pairs"] += a.shape[0] * b.shape[0]

        def hil_built(*_args, **_kwargs):
            if t.is_open("glue.fleet_correct"):
                t.counts["glue.fleet.models_built"] += 1

        def synthetic(spec, split, label, ids):
            ids = list(ids)
            t.counts["data_io.synthetic.rows"] += len(ids)
            t.keys["data_io.synthetic"].update((spec.seed, split, int(label), i) for i in ids)

        p = self._patch
        p(encoding.SignalEncoder, "__init__", spanned("encoding.encoder_build", build))
        p(encoding.SignalEncoder, "encode",
          lambda fn: _first_encode(t, "encoding.encode", fn, lambda v: 1))
        p(encoding.SignalEncoder, "encode_batch",
          lambda fn: _first_encode(t, "encoding.encode_batch", fn, lambda v: len(v)))
        for module in (encoding, hil, glue, bundling, data_io):
            p(module, "random_hv", spanned("hv.random_hv"))
        for module in (encoding, hv):
            p(module, "random_table", spanned("hv.random_table"))
        p(_kernels, "hamming_matrix", spanned("kernels.hamming_matrix", pairs))
        for method in ("add", "sub", "finalize"):
            p(bundling.ConsensusAccumulator, method, spanned(f"bundling.{method}"))
        p(hil.HILModel, "__init__", spanned("hil.build", hil_built))
        p(hil.HILModel, "update", spanned("hil.update"))
        p(hil.HILModel, "update_encoded", spanned("hil.update_encoded"))
        p(glue.GlueModel, "member_similarities", spanned("glue.member_similarities"))
        p(glue.GlueModel, "combine", spanned("glue.combine"))
        p(glue.ErrorFleet, "predict_batch", spanned("glue.error_fleet_predict"))
        for owner in (glue, hdglue):
            p(owner, "fleet_correct", spanned("glue.fleet_correct"))
        p(online.OnlineSession, "apply", lambda fn: _apply_event(t, fn))
        p(data_io, "model_to_bytes", spanned("data_io.model_to_bytes"))
        p(data_io, "model_from_bytes", spanned("data_io.model_from_bytes"))
        p(data_io.SyntheticNetworkSpec, "batch", spanned("data_io.synthetic", synthetic))

    def remove(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def active(self):
        self.install()
        try:
            yield
        finally:
            self.remove()
