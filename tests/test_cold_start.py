"""What a load regenerates and what it defers.

A load rebuilds every encoder from its seed, so the bulk builders of the
position and level matrices are pinned here to per-row references. Class
bundles and tiebreak vectors are read out only when something asks: these
tests count the readouts of a cold query and check that a loaded model,
trained on, lands where the live one does.
"""

import numpy as np
import pytest

from hdglue import (
    ClassRegistry,
    EncoderConfig,
    GlueModel,
    HILModel,
    LevelTable,
    PositionBasis,
    SeedContext,
    TooManyLevelsError,
    random_hv,
)
from hdglue import _kernels, bundling
from hdglue.data_io import default_spec, model_from_bytes, model_to_bytes, specialist_specs
from hdglue.glue import fleet_correct
from hdglue.hv import keyed_bytes, num_words, random_table, tail_mask
from hdglue.online import OnlineConfig, session_run, staged_schedule

DIMS = [64, 130, 1000, 10_000]


# -- encoder material --------------------------------------------------------


@pytest.mark.parametrize("dim", DIMS)
@pytest.mark.parametrize("length", [1, 7, 256])
def test_position_rows_are_the_per_index_vectors(dim, length):
    ctx = SeedContext(23, "position")
    basis = PositionBasis(dim, length, ctx)
    stacked = np.stack([random_hv(SeedContext(23, "position", i), dim).words
                        for i in range(length)])
    assert basis.words.shape == (length, num_words(dim))
    assert np.array_equal(basis.words, stacked)
    # Row i is the head of index i's keyed stream, tail word masked.
    last = np.frombuffer(keyed_bytes(SeedContext(23, "position", length - 1), 8 * num_words(dim)),
                         dtype="<u8").copy()
    last[-1] &= tail_mask(dim)
    assert np.array_equal(basis.words[-1], last)
    assert not basis.words.flags.writeable


def levels_by_flips(dim, num_levels, ctx):
    """Level words as the table defines them: low, then each slice flipped in turn."""
    low = random_hv(SeedContext(ctx.master_seed, ctx.namespace, 0), dim)
    high = random_hv(SeedContext(ctx.master_seed, ctx.namespace, 1), dim)
    diff = np.nonzero((low ^ high).bits())[0]
    steps = num_levels - 1
    if steps > diff.shape[0]:
        return None
    diff = diff[random_table(SeedContext(ctx.master_seed, "level-order", ctx.index),
                             diff.shape[0])]
    base, rem = divmod(diff.shape[0], steps)
    bits, start, rows = low.bits(), 0, [low.words]
    for size in [base + 1] * rem + [base] * (steps - rem):
        bits[diff[start:start + size]] ^= 1
        start += size
        rows.append(_kernels.pack_bits(bits, num_words(dim)))
    return np.stack(rows)


@pytest.mark.parametrize("dim", DIMS)
@pytest.mark.parametrize("num_levels", [2, 3, 17, 65, 1025])
def test_level_words_flip_each_slice_in_turn(dim, num_levels):
    ctx = SeedContext(31, "level-endpoint", 2)
    expect = levels_by_flips(dim, num_levels, ctx)
    if expect is None:
        with pytest.raises(TooManyLevelsError):
            LevelTable(dim, num_levels, ctx)
        return
    table = LevelTable(dim, num_levels, ctx)
    assert np.array_equal(table.words, expect)
    assert all(np.array_equal(table.levels[i].words, expect[i]) for i in range(num_levels))
    assert not table.words.flags.writeable


# -- deferred readouts -------------------------------------------------------


@pytest.fixture()
def finalized(monkeypatch):
    """Namespace of each tally's tiebreak, once per finalize call."""
    calls = []
    original = bundling.ConsensusAccumulator.finalize

    def counted(self):
        calls.append(self.tiebreak_ctx.namespace)
        return original(self)

    monkeypatch.setattr(bundling.ConsensusAccumulator, "finalize", counted)
    return calls


def test_a_cold_fleet_query_reads_out_no_tally(finalized):
    # Each round's classification vector is stored, so nothing is read out.
    spec = default_spec(0, signature_size=32, noise=2.2)
    train = spec.dataset("train", 40)
    cfg = EncoderConfig(length=spec.length, dim=1024, num_levels=17, seed=0)
    fleet = fleet_correct(train.values, train.labels.tolist(), cfg, ClassRegistry(0, 1024),
                          max_rounds=4, residual_memory=True)
    assert len(fleet.rounds) == 4
    blob = model_to_bytes(fleet)
    query = spec.dataset("test", 1).values[0]
    finalized.clear()
    cold = model_from_bytes(blob).predict(query)
    assert finalized == []
    assert cold == fleet.predict(query)


def test_a_tally_draws_its_tiebreak_on_its_first_readout(monkeypatch):
    drawn = []

    def draw(ctx, dim):
        drawn.append(ctx)
        return random_hv(ctx, dim)

    monkeypatch.setattr(bundling, "random_hv", draw)
    acc = bundling.ConsensusAccumulator(256, SeedContext(4, "tiebreak-class", 1))
    assert drawn == []
    assert acc.finalize() == acc.finalize() == random_hv(SeedContext(4, "tiebreak-class", 1), 256)
    assert drawn == [SeedContext(4, "tiebreak-class", 1)]


def hil_task(dim=512):
    spec = default_spec(3, signature_size=32, noise=2.0)
    cfg = EncoderConfig(length=spec.length, dim=dim, num_levels=33, seed=3)
    return spec, cfg, ClassRegistry(3, dim)


def examples(spec, classes, ids):
    """Training rows of ``ids`` for each class in turn, with their labels."""
    rows = np.vstack([spec.batch("train", c, ids) for c in classes])
    return rows, [c for c in classes for _ in ids]


def test_a_loaded_model_trains_on_to_the_live_model(finalized):
    spec, cfg, registry = hil_task()
    live = HILModel.train(*examples(spec, [0, 1, 2], range(6)), cfg, registry)
    loaded = model_from_bytes(model_to_bytes(live))
    # An old class, one seen for the first time, and one not touched.
    more = examples(spec, [1, 5], range(6, 10))
    finalized.clear()
    live.update(*more)
    live_calls = list(finalized)
    finalized.clear()
    loaded.update(*more)
    # Both read out the moved classes 1 and 5. The loaded model also reads
    # the untouched classes 0 and 2 out of their tallies, for their terms.
    assert sorted(live_calls) == ["tiebreak-class"] * 2
    assert sorted(finalized) == ["tiebreak-class"] * 4
    assert loaded.state_digest() == live.state_digest()
    assert loaded.classification_vector == live.classification_vector
    assert loaded.class_bundles == live.class_bundles


def test_training_reads_each_touched_class_once(finalized):
    spec, cfg, registry = hil_task()
    model = HILModel.train(*examples(spec, [0, 1, 2], range(5)), cfg, registry)
    # The classification vector is a majority of the class terms: no tally.
    assert sorted(finalized) == ["tiebreak-class"] * 3
    finalized.clear()
    model.update(*examples(spec, [2], range(5, 7)))
    assert finalized == ["tiebreak-class"]


def test_a_loaded_glue_member_trains_on_to_the_live_member():
    specs = specialist_specs(1)[:3]
    registry = ClassRegistry(1, 512)
    members = []
    for spec in specs:
        cfg = EncoderConfig(length=spec.length, dim=512, num_levels=17, seed=spec.seed)
        members.append(HILModel.train(*examples(spec, spec.classes[:2], range(5)), cfg, registry))
    live = GlueModel.build(members, weights=[1.0, 1.5, 2.0])
    loaded = model_from_bytes(model_to_bytes(live))
    more = examples(specs[1], specs[1].classes[:3], range(5, 8))
    for glue in (live, loaded):
        glue.update_member("m1", *more)
    assert loaded.state_digest() == live.state_digest()
    assert loaded.glue_vector == live.glue_vector
    for name in ("m0", "m1", "m2"):
        assert loaded.member(name).hil.class_bundles == live.member(name).hil.class_bundles


def test_a_resumed_session_trains_on_to_the_live_session():
    config = OnlineConfig(dim=512, num_levels=17, seed=2, test_per_class=10)
    schedule = staged_schedule(specialist_specs(2), classes_per_stage=2, observe_per_class=8)
    live = session_run(schedule, config)
    resumed = model_from_bytes(model_to_bytes(session_run(schedule[:7], config)))
    for event in schedule[7:]:
        resumed.apply(event)
    assert resumed.state_digest() == live.state_digest()
    assert resumed.history == live.history
    for name in live.glue.active_names():
        assert (resumed.glue.member(name).hil.class_bundles
                == live.glue.member(name).hil.class_bundles)
