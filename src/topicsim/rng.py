"""Keyed, counter-based random number generation.

Every random decision in the simulator is a pure function of a key tuple
(master seed, user id, site, epoch, purpose tag, ...). This gives us
per-site result pinning and bitwise reproducibility that is independent
of call order and of how draws are batched: there is no generator state
to advance, only keys to hash.

The hash is a chained splitmix64-style finalizer over the key words. It
is not cryptographic; it only needs good equidistribution, which the
chi-square checks in the test suite exercise.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Optional

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)

# Purpose tags keep independent decision streams from colliding even when
# the rest of the key tuple is identical.
TAG_NOISE_FLAG = 0x01
TAG_TOPIC_PICK = 0x02
TAG_SHUFFLE = 0x03
TAG_PROFILE = 0x04
TAG_PROFILE_FILL = 0x05
TAG_DOMAIN_COUNT = 0x06
TAG_DOMAIN_PICK = 0x07
TAG_SYNTH_CLASSIFICATION = 0x08


def _splitmix(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


def string_key(s: str) -> int:
    """Stable 64-bit key for a string (site names, labels)."""
    return int.from_bytes(hashlib.blake2b(s.encode("utf-8"), digest_size=8).digest(), "big")


def _as_u64(word) -> np.ndarray:
    if isinstance(word, (int, np.integer)):
        return np.uint64(int(word) & 0xFFFFFFFFFFFFFFFF)
    arr = np.asarray(word)
    if arr.dtype.kind == "i":
        return arr.astype(np.int64).view(np.uint64)
    return arr.astype(np.uint64)


def hash_u64(*words) -> np.ndarray:
    """Hash a key tuple of integers to uint64; a string enters as its `string_key`.
    Integer array words broadcast together."""
    with np.errstate(over="ignore"):
        h = _GOLDEN
        for w in words:
            h = _splitmix((h * _MIX1) ^ _as_u64(w) ^ _GOLDEN)
        return _splitmix(h)


def uniform(*words) -> np.ndarray:
    """Uniform float64 in [0, 1) keyed by the word tuple."""
    return (hash_u64(*words) >> np.uint64(11)) * (2.0**-53)


def permutation(k: int, *words) -> np.ndarray:
    """Deterministic permutation of range(k) keyed by the word tuple."""
    keys = uniform(*words, np.arange(k, dtype=np.int64))
    return np.argsort(keys, kind="stable")


def counter_stream(n: int, *words) -> np.ndarray:
    """n uniform floats from counters 0..n-1 appended to the key tuple."""
    return uniform(*words, np.arange(n, dtype=np.int64))


def segment_ranks(rows: np.ndarray) -> np.ndarray:
    """Position of each entry inside its run of equal adjacent `rows`."""
    starts = np.flatnonzero(np.r_[True, rows[1:] != rows[:-1]])
    lengths = np.diff(np.r_[starts, rows.size])
    return np.arange(rows.size) - np.repeat(starts, lengths)


def distinct_draws(
    need: np.ndarray,
    batch: Callable[[np.ndarray], np.ndarray],
    draw: Callable[[int, np.ndarray, np.ndarray], np.ndarray],
    width: int,
    taken: Optional[np.ndarray] = None,
) -> np.ndarray:
    """The first `need[r]` new values of each row's keyed draw stream.

    Round c asks `draw(c, rows, j)` for `batch(short)` values in
    [0, width) of every row still `short` of its need, j counting from 0
    inside the row. It keeps the first occurrence of each (row, value)
    that is not in `taken` or already chosen, and of those a row's first
    `short`, so each row gets exactly what a scalar draw-and-skip loop
    would. `taken` holds keys row * width + value. Returns the chosen
    pairs as such keys, sorted.
    """
    need = np.asarray(need, dtype=np.int64).copy()
    seen = np.zeros(0, dtype=np.int64) if taken is None else taken
    start = seen.size
    rows = np.flatnonzero(need > 0)
    counter = 0
    while rows.size:
        r = np.repeat(rows, batch(need[rows]))
        keys = r * width + draw(counter, r, segment_ranks(r))
        _, first = np.unique(keys, return_index=True)
        first.sort()
        if seen.size:
            # Membership by `searchsorted` on the sorted keys: `np.isin` hashes,
            # which is several times slower on these keys.
            s = np.sort(seen)
            at = np.minimum(np.searchsorted(s, keys[first]), s.size - 1)
            first = first[s[at] != keys[first]]
        keep = first[segment_ranks(r[first]) < need[r[first]]]
        seen = np.concatenate([seen, keys[keep]])
        need -= np.bincount(r[keep], minlength=need.size)
        rows = rows[need[rows] > 0]
        counter += 1
    return np.sort(seen[start:])
