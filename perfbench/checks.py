"""Correctness checks made apart from the program.

Each check takes the program's output as an argument and compares it with
a recomputation written here, or with a property the method must have. A
check returns True when the output passes; the benchmark counts a False as
one failed operation. Bit work here is plain unpacked uint8 arithmetic, not
the package's packed kernels.
"""

from __future__ import annotations

import numpy as np

SCORE_TOL = 1e-9


def unpack(words: np.ndarray, dim: int) -> np.ndarray:
    """(..., W) uint64 words -> (..., dim) uint8 bits, bit i of word i // 64 at i % 64."""
    bytes_ = np.ascontiguousarray(words, dtype="<u8").view(np.uint8)
    return np.unpackbits(bytes_, axis=-1, bitorder="little")[..., :dim]


def pack(bits: np.ndarray) -> np.ndarray:
    """Inverse of :func:`unpack` for (..., dim) bits, padding with zeros."""
    dim = bits.shape[-1]
    full = np.zeros(bits.shape[:-1] + (-(-dim // 64) * 64,), dtype=np.uint8)
    full[..., :dim] = bits
    return np.packbits(full, axis=-1, bitorder="little").view("<u8").astype(np.uint64)


def reference_encode(encoder, row) -> np.ndarray:
    """Per-bit integer tally of levels[q_l] ^ positions[l], ties from the tiebreak."""
    cfg = encoder.config
    x = np.asarray(row, dtype=np.float64)
    q = np.floor((np.tanh(x) + 1.0) / 2.0 * (cfg.num_levels - 1) + 0.5).astype(np.int64)
    q = np.clip(q, 0, cfg.num_levels - 1)
    bound = unpack(encoder.levels.words, cfg.dim)[q] ^ unpack(encoder.positions.words, cfg.dim)
    count = bound.sum(axis=0, dtype=np.int64)
    tiebreak = unpack(encoder.tiebreak.words, cfg.dim)
    bits = (2 * count > cfg.length) | ((2 * count == cfg.length) & (tiebreak == 1))
    return pack(bits.astype(np.uint8))


def encode_matches(encoder, rows, words) -> bool:
    """The program's words for ``rows`` equal the reference tally, row by row."""
    return all(
        np.array_equal(reference_encode(encoder, row), np.asarray(w, dtype=np.uint64))
        for row, w in zip(rows, words)
    )


def reference_fused_scores(glue_words, model_ids, weights, query_words, id_words, dim):
    """sum_m w_m * (1 - popcount(q_m ^ glue ^ id_m ^ class_c) / D): (n, C).

    model_ids and weights list the members in order; query_words holds each
    member's (n, W) encoded queries.
    """
    ids = unpack(id_words, dim)
    scores = 0.0
    for mid, w, q in zip(model_ids, weights, query_words):
        unbound = unpack(q ^ glue_words ^ mid, dim)
        differ = (unbound[:, None, :] != ids[None, :, :]).sum(axis=2, dtype=np.int64)
        scores = scores + w * (1.0 - differ / dim)
    return scores


def fused_scores_match(glue, weights, query_words, scores) -> bool:
    """The glue's fused scores equal the reference within SCORE_TOL.

    ``weights`` are the member weights the benchmark asked for, in member
    order; ``query_words`` each member's encoded view of the queries.
    """
    members = [glue.member(n) for n in glue.active_names()]
    id_words = glue.registry.id_words(glue.class_labels())
    expected = reference_fused_scores(
        glue.glue_vector.words, [m.model_id.words for m in members], weights,
        query_words, id_words, glue.dim,
    )
    return bool(np.abs(expected - np.asarray(scores)).max() <= SCORE_TOL)


def single_matches_batch(single, batch_pick, batch_scores, labels) -> bool:
    """A single ``predict`` answer agrees with its ``predict_batch`` row.

    Scores agree within SCORE_TOL; picks are equal wherever the top two
    scores differ by more than SCORE_TOL.
    """
    pick, scores = single
    row = np.asarray([scores[c] for c in labels])
    if np.abs(row - batch_scores).max() > SCORE_TOL:
        return False
    top = np.sort(batch_scores)[-2:]
    return pick == batch_pick or top[1] - top[0] <= SCORE_TOL


def round_weights_match(rounds, n_rows) -> bool:
    """Each round's weight is round(subset/n * correct/subset * 10**6)."""
    return all(
        r.weight == round(r.subset_size / n_rows * (r.correct / r.subset_size) * 1_000_000)
        for r in rounds
    )


def strictly_increasing(values) -> bool:
    return all(b > a for a, b in zip(values, values[1:]))


def far_above_chance(history) -> bool:
    """Every Evaluate scores at least halfway from chance to perfect."""
    for record in history:
        chance = 1.0 / len(record["classes"])
        if record["overall"] < chance + (1.0 - chance) / 2:
            return False
    return True
