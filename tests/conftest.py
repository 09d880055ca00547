import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from ropuf import ro, sampler

sys.path.insert(0, str(Path(__file__).parent))

settings.register_profile("ci", derandomize=True, max_examples=60)
settings.load_profile("ci")


def make_unit(t1: float, t2: float, coupling: ro.Coupling | None = None,
              word_length: int = 16, jitter: float = 0.0,
              gamma1: float = 0.0, gamma2: float = 0.0) -> sampler.PufUnit:
    """Unit with explicitly pinned periods, for oracle-style tests."""
    return sampler.PufUnit(
        ro1=ro.RoInstance(period_at_ref=t1, gamma=gamma1, jitter_sigma=jitter),
        ro2=ro.RoInstance(period_at_ref=t2, gamma=gamma2, jitter_sigma=jitter),
        coupling=coupling or ro.Coupling.none(),
        word_length=word_length,
    )


def word_of(bits) -> np.ndarray:
    return np.array(list(bits), dtype=np.uint8)


@pytest.fixture
def rng():
    return np.random.default_rng(0xC0FFEE)
