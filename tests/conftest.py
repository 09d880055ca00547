import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np
import pytest
from hypothesis import settings

from oracles import pack_rows, unpack_rows
from ropuf import chipsim, ro
from ropuf.dataset import CampaignDataset

sys.path.insert(0, str(Path(__file__).parent))

settings.register_profile("ci", derandomize=True, max_examples=60)
settings.load_profile("ci")


def make_unit(t1: float, t2: float, coupling: ro.Coupling | None = None,
              word_length: int = 16, jitter: float = 0.0,
              gamma1: float = 0.0, gamma2: float = 0.0) -> chipsim.PufUnit:
    """Unit with explicitly pinned periods, for oracle-style tests."""
    return chipsim.PufUnit(
        ro1=ro.RoInstance(period_at_ref=t1, gamma=gamma1, jitter_sigma=jitter),
        ro2=ro.RoInstance(period_at_ref=t2, gamma=gamma2, jitter_sigma=jitter),
        coupling=coupling or ro.Coupling(),
        word_length=word_length,
    )


@dataclass
class HandMadeCampaign(chipsim.Campaign):
    """A campaign whose chip c has the units chip_units(c) in place of the
    ones Campaign.units realizes; collect() holds every chip block."""

    chip_units: Callable[[int], tuple[chipsim.PufUnit, ...]] = field(kw_only=True)

    def units(self, c: int) -> tuple[chipsim.PufUnit, ...]:
        return self.chip_units(c)

    def collect(self) -> CampaignDataset:
        return CampaignDataset(self.config, self.ro_params, self.coupling, list(self))


def word_of(bits) -> np.ndarray:
    return np.array(list(bits), dtype=np.uint8)


def packed_dataset(cfg, references: np.ndarray, samples: dict) -> CampaignDataset:
    """A dataset of (n_chips, L) reference bits and per-voltage
    (n_chips, T, L) sample bits, packed into the chip blocks it holds."""
    refs = pack_rows(references)
    cells = {v: pack_rows(s) for v, s in samples.items()}
    return CampaignDataset(cfg, ro.RoParams(), ro.Coupling(),
                           [(refs[c].tobytes(), [cells[v][c].tobytes() for v in cfg.voltages])
                            for c in range(cfg.n_chips)])


def held(dataset, v) -> tuple[np.ndarray, np.ndarray]:
    """A dataset's grid at voltage v as arrays read from its chip blocks:
    the (n_chips, L) reference bits, enrolled at the reference voltage, and
    the (n_chips, T, ceil(L/8)) packed samples at v."""
    cfg = dataset.config
    k = cfg.voltages.index(v)
    blocks = list(dataset)
    refs = np.frombuffer(b"".join(ref for ref, _ in blocks), dtype=np.uint8)
    cells = np.frombuffer(b"".join(cells[k] for _, cells in blocks), dtype=np.uint8)
    return (unpack_rows(refs.reshape(cfg.n_chips, -1), cfg.id_length),
            cells.reshape(cfg.n_chips, cfg.samples_per_chip, -1))


@pytest.fixture
def rng():
    return np.random.default_rng(0xC0FFEE)
