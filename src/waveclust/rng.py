"""Deterministic random-stream derivation from a single master seed.

Every stochastic routine in the package draws from a stream derived here,
so a pipeline is reproducible from one integer seed regardless of how many
worker processes execute it.
"""

import zlib

import numpy as np

from .data import _integer


def _master_seed(seed):
    """``seed`` as a nonnegative int, so no two seeds share a stream."""
    seed = _integer(seed, "seed")
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    return seed


def derived_rng(seed, *labels):
    """Generator seeded from the stream identified by ``(seed, labels)``.

    Labels may be strings or integers; strings are hashed with CRC32 so the
    derivation is stable across platforms and sessions.
    """
    keys = [_master_seed(seed)]
    for label in labels:
        if isinstance(label, str):
            keys.append(zlib.crc32(label.encode("utf-8")))
        else:
            keys.append(int(label) & 0xFFFFFFFF)
    return np.random.default_rng(np.random.SeedSequence(keys))
