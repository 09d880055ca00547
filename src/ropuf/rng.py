"""Keyed deterministic RNG streams.

Every stochastic quantity in a campaign draws from its own stream keyed by
integers (master seed, purpose tag, chip, unit[, row]).  Any sub-grid of
a campaign therefore reproduces exactly, independent of iteration order
or which other grid cells are simulated.  A stream is always given by its
integer key.

This is the one module that loads numpy's random machinery, and it loads
only what the streams use: SeedSequence, PCG64 and Generator.  The
package `numpy.random` would also load the legacy RandomState, MT19937,
Philox, SFC64 and the pickling helpers, and `bit_generator` imports
`secrets.randbits`, which would load `hmac`, `hashlib` and its digests.
While the three submodules load, an unexecuted package module stands in
for `numpy.random`, and a module holding only `randbits` (as the stdlib
defines it: `random.SystemRandom().getrandbits`, which only an unseeded
`SeedSequence()` calls) for `secrets`, each if the real one is not loaded
yet; both are removed again, so a later import loads the real module.
That load, made on the first import of this module, is not thread-safe
against another thread importing `numpy.random` or `secrets` at once.
"""
from __future__ import annotations

import random
import sys
import types
from importlib.util import find_spec, module_from_spec


def _load():
    """numpy's SeedSequence, PCG64 and Generator, without executing the
    `numpy.random` package or `secrets` when they are not imported yet."""
    stand_ins = {}
    if "numpy.random" not in sys.modules:
        stand_ins["numpy.random"] = module_from_spec(find_spec("numpy.random"))
    if "secrets" not in sys.modules and "numpy.random.bit_generator" not in sys.modules:
        stand_ins["secrets"] = types.ModuleType("secrets")
        stand_ins["secrets"].randbits = random.SystemRandom().getrandbits
    sys.modules.update(stand_ins)
    try:
        from numpy.random import _generator, _pcg64, bit_generator
    finally:
        for name, module in stand_ins.items():
            if sys.modules.get(name) is module:
                del sys.modules[name]
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
