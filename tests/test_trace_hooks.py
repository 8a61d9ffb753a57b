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
        models = [HILModel.train(rows + k, labels,
                                 EncoderConfig(length=6, dim=256, num_levels=9, seed=k), registry)
                  for k in range(2)]
        fused = GlueModel.build(models, seed=3)
        picks, _, _ = fused.predict_batch({"m0": rows, "m1": rows + 1})
    summary = tracer.summary()
    for name in ("encoding.encode_batch", "hil.update_encoded", "bundling.finalize"):
        assert summary[name][0] > 0, name
    assert tracer.counts["encoding.encode_batch.rows"] == 4 * len(rows)
    assert picks.shape == (len(rows),)
    for ns, attrs in before.items():
        now = vars(ns)
        assert now.keys() == attrs.keys(), ns
        assert all(now[k] is v for k, v in attrs.items()), ns
