"""Deterministic random-stream derivation.

Every stochastic operation in the package takes an explicit seed.  Sub-streams
(per trial, per purpose) are derived by hashing the master seed together with
a label path, so results do not depend on execution order or thread count:
two workers asking for ``substream(seed, "batch", 3)`` always get the same
stream, no matter who asks first.
"""

from __future__ import annotations

import functools

from ._lazy_numpy import np


def _label_to_int(part: int | str) -> int:
    if isinstance(part, (int, np.integer)):
        if part < 0:
            raise ValueError(f"seed path components must be non-negative, got {part}")
        return int(part)
    return _label_digest(str(part))


@functools.lru_cache(maxsize=256)
def _label_digest(label: str) -> int:
    """The first 8 bytes of the label's SHA-256, little-endian.  A run asks for
    a few labels hundreds of times each; ``hashlib`` (and OpenSSL) loads only
    once a label is hashed, so the closed-form commands never load it."""
    import hashlib

    digest = hashlib.sha256(label.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def seed_sequence(seed: int, *path: int | str) -> np.random.SeedSequence:
    """Build a :class:`numpy.random.SeedSequence` for ``seed`` plus a label path."""
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    entropy = [int(seed)] + [_label_to_int(p) for p in path]
    return np.random.SeedSequence(entropy)


def substream(seed: int, *path: int | str) -> np.random.Generator:
    """Derive an independent generator for (seed, *path)."""
    return np.random.Generator(np.random.PCG64(seed_sequence(seed, *path)))


def as_generator(seed) -> np.random.Generator:
    """Coerce an int seed, SeedSequence or Generator into a Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return np.random.Generator(np.random.PCG64(seed))
    if isinstance(seed, (int, np.integer)):
        return substream(int(seed))
    raise TypeError(f"expected int, SeedSequence or Generator, got {type(seed)!r}")
