"""Keyed deterministic RNG streams.

Every stochastic quantity in a campaign draws from its own stream keyed by
integers (master seed, purpose tag, chip, unit, sample).  Any sub-grid of
a campaign therefore reproduces exactly, independent of iteration order,
worker count, or which other grid cells are simulated.
"""
from __future__ import annotations

import numpy as np

# Purpose tags keep unrelated streams apart even when the rest of the key
# collides.
TAG_REALIZE = 1
TAG_SAMPLE = 2
TAG_ENROLL = 3


def keyed_rng(*key: int) -> np.random.Generator:
    """Generator seeded from an integer key tuple."""
    return np.random.default_rng(np.random.SeedSequence([int(k) for k in key]))


def ensure_rng(seed) -> np.random.Generator:
    """Accept a Generator, an int seed, or a SeedSequence."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)
