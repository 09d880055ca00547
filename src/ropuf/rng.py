"""Keyed deterministic RNG streams.

Every stochastic quantity in a campaign draws from its own stream keyed by
integers (master seed, purpose tag, chip, unit[, row]).  Any sub-grid of
a campaign therefore reproduces exactly, independent of iteration order
or which other grid cells are simulated.
"""
from __future__ import annotations

import numpy as np

# Purpose tags keep unrelated streams apart even when the rest of the key
# collides.
TAG_REALIZE = 1
# 2 keyed the per-sample streams of stream version 1; it is not reused.
TAG_ENROLL = 3
TAG_RO1 = 4
TAG_RO2 = 5
TAG_EXTEND = 6         # (chip, unit, sample): RO1 normals past a sample's row
TAG_ENROLL_EXTEND = 7  # (chip, unit, repetition): the same for enrollment rows


def keyed_rng(*key: int) -> np.random.Generator:
    """Generator seeded from an integer key tuple."""
    return np.random.default_rng(np.random.SeedSequence([int(k) for k in key]))


def ensure_rng(seed) -> np.random.Generator:
    """Accept a Generator, an int seed, or a SeedSequence."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)
