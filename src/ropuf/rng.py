"""Keyed deterministic RNG streams.

Every stochastic quantity in a campaign draws from its own stream keyed by
integers (master seed, purpose tag, chip, unit[, row]).  Any sub-grid of
a campaign therefore reproduces exactly, independent of iteration order
or which other grid cells are simulated.  A stream is always given by its
integer key.

This is the one module that loads numpy's random machinery, and it loads
only what the streams use: SeedSequence, PCG64 and Generator.  The
package `numpy.random` would also load the legacy RandomState, MT19937,
Philox, SFC64 and the pickling helpers, which no command runs.  When
`numpy.random` is not imported yet, an unexecuted package module stands
in for it while the three submodules load, and is removed again; a later
`import numpy.random` runs the real package and reuses the same classes.
That load, made on the first import of this module, is not thread-safe
against another thread importing `numpy.random` at the same time.
"""
from __future__ import annotations

import importlib.util
import sys


def _load():
    """numpy's SeedSequence, PCG64 and Generator, without executing the
    `numpy.random` package when it is not imported yet."""
    package = None
    if "numpy.random" not in sys.modules:
        package = importlib.util.module_from_spec(importlib.util.find_spec("numpy.random"))
        sys.modules["numpy.random"] = package
    try:
        from numpy.random import _generator, _pcg64, bit_generator
    finally:
        if package is not None and sys.modules.get("numpy.random") is package:
            del sys.modules["numpy.random"]
    return bit_generator.SeedSequence, _pcg64.PCG64, _generator.Generator


SeedSequence, PCG64, Generator = _load()

# Purpose tags keep unrelated streams apart even when the rest of the key
# collides.
TAG_REALIZE = 1
# 2 keyed the per-sample streams of stream version 1; it is not reused.
TAG_ENROLL = 3
TAG_RO1 = 4
TAG_RO2 = 5
TAG_EXTEND = 6         # (chip, unit, sample): RO1 normals past a sample's row
TAG_ENROLL_EXTEND = 7  # (chip, unit, repetition): the same for enrollment rows


def keyed_rng(*key: int) -> Generator:
    """Generator seeded from an integer key tuple: the one that
    default_rng(SeedSequence(key)) builds."""
    return Generator(PCG64(SeedSequence([int(k) for k in key])))
