"""Hot inner loops over packed words, in four layers: bit counts, sign
readout, unbind scoring and Hamming counts.

This module owns the word layout: bit i of a row lives at
``words[i // 64] >> (i % 64)``, and every bit past the row's width is zero.

Per-bit counts come from one column sum over unpacked rows. The sign
readout of a signed per-bit tally defers exact zeros to the caller's
tiebreak word. Unbind scoring XORs a key out of each query and turns the
Hamming counts to reference rows into similarities, ``1 - count / dim``.
"""

from __future__ import annotations

import numpy as np

# column_counts unpacks rows in chunks of about this many bytes.
_CHUNK_ENTRIES = 1 << 18
# hamming_matrix XORs rows in chunks of about this many bytes: small enough
# for the XOR, its popcounts and their sum to stream through cache.
_HAMMING_CHUNK_BYTES = 1 << 19


def unpack_bits(words: np.ndarray, dim: int) -> np.ndarray:
    """uint8 bits of packed words along the last axis, trimmed to ``dim``."""
    flat = np.unpackbits(words.view(np.uint8), axis=-1, bitorder="little")
    return flat[..., :dim]


def pack_bits(bits: np.ndarray, n_words: int) -> np.ndarray:
    """Packed uint64 words of 0/1 values along the last axis, zero-padded."""
    if bits.shape[-1] != n_words * 64:
        full = np.zeros(bits.shape[:-1] + (n_words * 64,), dtype=np.uint8)
        full[..., : bits.shape[-1]] = bits
        bits = full
    return np.packbits(bits, axis=-1, bitorder="little").view(np.uint64)


def column_counts(words: np.ndarray, dim: int) -> np.ndarray:
    """Set bits per position over the rows of packed words: (dim,) int64."""
    out = np.zeros(dim, dtype=np.int64)
    # A uint8 column sum is exact over at most 255 rows.
    step = max(1, min(255, _CHUNK_ENTRIES // (words.shape[1] * 64)))
    for lo in range(0, words.shape[0], step):
        out += np.add.reduce(unpack_bits(words[lo : lo + step], dim), axis=0, dtype=np.uint8)
    return out


def sign_words(tally: np.ndarray, tiebreak_words: np.ndarray) -> np.ndarray:
    """Packed sign of a signed per-bit tally: 1 where positive, the tiebreak bit where zero."""
    n_words = tiebreak_words.shape[0]
    return pack_bits(tally > 0, n_words) | (pack_bits(tally == 0, n_words) & tiebreak_words)


def unbind_similarities(queries: np.ndarray, key: np.ndarray | None, refs: np.ndarray,
                        dim: int) -> np.ndarray:
    """Similarity of each query row, XORed with ``key`` unless it is None, to each
    reference row: (n, m) floats ``1 - hamming / dim``."""
    unbound = queries if key is None else queries ^ key[None, :]
    return 1.0 - hamming_matrix(unbound, refs) / dim


def hamming_matrix(a_words: np.ndarray, b_words: np.ndarray) -> np.ndarray:
    """Pairwise hamming counts between row sets of packed words: (n, m) int64."""
    n = a_words.shape[0]
    out = np.empty((n, b_words.shape[0]), dtype=np.int64)
    step = max(1, _HAMMING_CHUNK_BYTES // max(1, b_words.size * 8))
    for lo in range(0, n, step):
        hi = min(n, lo + step)
        x = a_words[lo:hi, None, :] ^ b_words[None, :, :]
        out[lo:hi] = np.bitwise_count(x).sum(axis=2, dtype=np.int64)
    return out
