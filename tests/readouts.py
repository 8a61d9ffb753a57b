"""Reference readouts rebuilt from a model's parts, for differential tests.

A glue's vector is the readout of a fresh tally with one add per active
term; a model's classification vector is the majority of its class terms.
Both derive every seeded vector from its seed, not from the model.
"""

from fractions import Fraction

from hdglue import ConsensusAccumulator, SeedContext, majority, random_hv
from hdglue.bundling import MILLION


def glue_tally(glue) -> ConsensusAccumulator:
    """One add per active member with a vector: its model ID bound to it."""
    tally = ConsensusAccumulator(glue.dim, SeedContext(glue.seed, "tiebreak-glue", 0))
    for m in glue.members.values():
        if m.active and m.vector is not None:
            model_id = random_hv(SeedContext(glue.seed, "model", m.index), glue.dim)
            tally.add(model_id ^ m.vector, Fraction(m.weight, MILLION))
    return tally


def classification_vector(model):
    """Majority of each class ID bound to its class tally's readout."""
    terms = [model.registry.id_for(c) ^ model.class_accumulators[c].finalize()
             for c in model.labels()]
    tiebreak = random_hv(SeedContext(model.config.seed, "tiebreak-fusion", 0), model.config.dim)
    return majority(terms, tiebreak)
