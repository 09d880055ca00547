import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from ropuf import ro, sampler
from ropuf.dataset import CampaignDataset

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


def packed_dataset(cfg, references: dict, samples: dict) -> CampaignDataset:
    """A dataset of per-voltage (n_chips, L) reference bits and
    (n_chips, T, L) sample bits, packed into bytes as it holds them."""
    return CampaignDataset(cfg, ro.RoParams(), ro.Coupling.none(),
                           {v: sampler.pack_rows(r).tobytes() for v, r in references.items()},
                           {v: sampler.pack_rows(s).tobytes() for v, s in samples.items()})


def held(dataset, v) -> tuple[np.ndarray, np.ndarray]:
    """A dataset's grid at voltage v as arrays viewed from its bytes: the
    (n_chips, L) reference bits and the (n_chips, T, ceil(L/8)) packed samples."""
    cfg = dataset.config
    refs = np.frombuffer(dataset.references[v], dtype=np.uint8).reshape(cfg.n_chips, -1)
    cells = np.frombuffer(dataset.samples[v], dtype=np.uint8).reshape(
        cfg.n_chips, cfg.samples_per_chip, -1)
    return sampler.unpack_rows(refs, cfg.id_length), cells


@pytest.fixture
def rng():
    return np.random.default_rng(0xC0FFEE)
