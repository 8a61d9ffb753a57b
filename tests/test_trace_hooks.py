"""The benchmark's tracer still finds every hook it patches, and puts each back.

``perfbench/spans.py`` replaces entry points where callers look them up,
including module functions imported by name (``random_hv``,
``random_table``). Dropping one of those imports would only show as a
crashed traced benchmark run; here it fails at install.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

import hdglue
from hdglue import (
    ClassRegistry,
    EncoderConfig,
    GlueModel,
    HILModel,
    _kernels,
    bundling,
    data_io,
    encoding,
    glue,
    hil,
    hv,
    online,
)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture()
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delitem(sys.modules, "spans", raising=False)
    import spans

    yield spans
    sys.modules.pop("spans", None)


def _namespaces():
    """Every module and class the tracer patches."""
    return (hdglue, _kernels, bundling, data_io, encoding, glue, hil, hv, online,
            encoding.SignalEncoder, bundling.ConsensusAccumulator, hil.HILModel,
            glue.GlueModel, glue.ErrorFleet, online.OnlineSession,
            data_io.SyntheticNetworkSpec)


def test_tracer_installs_records_and_restores(spans):
    before = {ns: dict(vars(ns)) for ns in _namespaces()}
    registry = ClassRegistry(1, 256)
    rng = np.random.default_rng(0)
    rows = rng.normal(size=(12, 6))
    labels = [0, 1, 2] * 4
    tracer = spans.Tracer()
    with spans.Instrumentation(tracer).active():
        configs = [EncoderConfig(length=6, dim=256, num_levels=9, seed=k) for k in range(2)]
        # One model learns raw rows, the other encoded words.
        models = [HILModel.train(rows, labels, configs[0], registry),
                  HILModel(configs[1], registry)]
        models[1].update_encoded(models[1].encoder.encode_batch(rows + 1), labels)
        fused = GlueModel.build(models, seed=3)
        picks, _, _ = fused.predict_batch({"m0": rows, "m1": rows + 1})
    summary = tracer.summary()
    for name in ("encoding.encode_batch", "hil.update", "hil.update_encoded",
                 "bundling.finalize"):
        assert summary[name][0] > 0, name
    assert tracer.counts["encoding.encode_batch.rows"] == 3 * len(rows)
    assert picks.shape == (len(rows),)
    for ns, attrs in before.items():
        now = vars(ns)
        assert now.keys() == attrs.keys(), ns
        assert all(now[k] is v for k, v in attrs.items()), ns


def test_every_generated_session_row_passes_through_the_counted_batch(spans):
    # The benchmark counts synthetic rows by wrapping SyntheticNetworkSpec.batch;
    # a row generated around it would only show as a smaller per-layer count.
    config = online.OnlineConfig(dim=256, num_levels=9, seed=2, test_per_class=6)
    specs = data_io.specialist_specs(0, n_models=3, n_classes=6)
    schedule = online.staged_schedule(specs, classes_per_stage=2, observe_per_class=5)
    schedule += [online.Observe(3), online.Evaluate()]
    session = online.OnlineSession(config)
    observed, held_out = 0, set()
    tracer = spans.Tracer()
    with spans.Instrumentation(tracer).active():
        for event in schedule:
            trained = [n for n in session.glue.active_names()
                       if session.glue.member(n).vector is not None]
            if isinstance(event, online.Observe):
                observed += (len(session.glue.active_names()) * len(session.intro_order)
                             * event.per_class)
            elif isinstance(event, online.Evaluate):
                held_out.update((n, c) for n in trained for c in session.intro_order)
            session.apply(event)
    assert observed and held_out
    assert tracer.counts["data_io.synthetic.rows"] == (
        observed + len(held_out) * config.test_per_class)
