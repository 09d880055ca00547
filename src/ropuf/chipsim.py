"""Chip populations and measurement campaigns.

A campaign realizes N chips from one parameter family, enrolls a
reference ID per chip and voltage, then collects T fresh-jitter samples
per (chip, voltage) cell.  Every stochastic draw comes from a stream
keyed by (master seed, purpose, chip, unit), whose rows have a width that
depends on the word length only, so the full grid and any sub-grid
produce identical bits, and sample t is the same enable cycle at every
voltage (common random numbers).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import ro
from .config import CampaignConfig
from .dataset import STREAM_VERSION, CampaignDataset, split
from .errors import ConfigurationError
from .metrics import linear_fit
from .rng import (TAG_ENROLL, TAG_ENROLL_EXTEND, TAG_EXTEND, TAG_REALIZE, TAG_RO1, TAG_RO2,
                  keyed_rng)
from .sampler import PufUnit, draw_rows, modal_row, normal_widths, pack_rows, sample_rows
# Not called here: `ropuf simulate` saves through chipsim.save_dataset, and
# perfbench/traced_cli.py wraps these names as chipsim attributes, so they
# stay importable from this module.  `ropuf metrics` loads through the
# dataset module, which imports no numpy.
from .dataset import load_dataset, save_dataset  # noqa: F401
from .sampler import enroll_id, sample_word  # noqa: F401

# Sample rows are drawn this many at a time, which bounds the kernel's
# working memory; rows have a fixed width, so the bits do not depend on it.
CHUNK_ROWS = 128


@dataclass(frozen=True)
class Chip:
    """One simulated die: an ordered list of PUF units."""

    chip_id: int
    units: tuple[PufUnit, ...]


def build_population(config: CampaignConfig, params: ro.RoParams,
                     coupling: ro.Coupling = ro.Coupling.none()) -> list[Chip]:
    """Realize n_chips chips, each with pairs_per_id independent RO pairs."""
    config.validate(params)
    chips = []
    for c in range(config.n_chips):
        units = []
        for u in range(config.pairs_per_id):
            ro1 = ro.realize_ro(params, (config.master_seed, TAG_REALIZE, c, u, 0))
            ro2 = ro.realize_ro(params, (config.master_seed, TAG_REALIZE, c, u, 1))
            units.append(PufUnit(ro1=ro1, ro2=ro2, coupling=coupling,
                                 word_length=config.word_length,
                                 reference_voltage=params.reference_voltage))
        chips.append(Chip(chip_id=c, units=tuple(units)))
    return chips


@dataclass
class Campaign:
    """A campaign sampled on demand: iterating it yields, chip by chip, a
    block (refs, cells) that holds, per voltage, the chip's reference and
    its T samples as bytes packed by pack_rows, so a consumer holds one
    chip's block.  Each unit draws its enrollment block and sample rows
    once and evaluates them at every voltage, in this process.  Every
    check runs at creation."""

    chips: list[Chip] = field(repr=False)
    config: CampaignConfig
    ro_params: ro.RoParams
    coupling: ro.Coupling = ro.Coupling.none()
    stream_version = STREAM_VERSION

    def __post_init__(self):
        self.config.validate(self.ro_params)
        if len(self.chips) != self.config.n_chips:
            raise ConfigurationError("chip list does not match config.n_chips")

    def __iter__(self):
        cfg = self.config
        seed, voltages, lw = cfg.master_seed, cfg.voltages, cfg.word_length
        n_volts = len(voltages)
        b1w, n2 = normal_widths(lw)
        n_samples = cfg.samples_per_chip
        for chip in self.chips:
            c = chip.chip_id
            refs = np.empty((n_volts, cfg.id_length), dtype=np.uint8)
            cells = np.empty((n_volts, n_samples, cfg.id_length), dtype=np.uint8)
            for u, unit in enumerate(chip.units):
                bits = slice(u * lw, (u + 1) * lw)
                g1, g2 = draw_rows(keyed_rng(seed, TAG_ENROLL, c, u), cfg.enroll_repetitions, lw)
                for k, v in enumerate(voltages):
                    refs[k, bits] = modal_row(sample_rows(
                        unit, v, g1, g2, lambda r: keyed_rng(seed, TAG_ENROLL_EXTEND, c, u, r)))
                ro1, ro2 = keyed_rng(seed, TAG_RO1, c, u), keyed_rng(seed, TAG_RO2, c, u)
                for start in range(0, n_samples, CHUNK_ROWS):
                    n = min(CHUNK_ROWS, n_samples - start)
                    g1, g2 = ro1.standard_normal((n, b1w)), ro2.standard_normal((n, n2))
                    for k, v in enumerate(voltages):
                        cells[k, start:start + n, bits] = sample_rows(
                            unit, v, g1, g2,
                            lambda i: keyed_rng(seed, TAG_EXTEND, c, u, start + i))
            yield (split(pack_rows(refs).tobytes(), n_volts),
                   split(pack_rows(cells).tobytes(), n_volts))


def run_campaign(chips: list[Chip], config: CampaignConfig, ro_params: ro.RoParams,
                 coupling: ro.Coupling = ro.Coupling.none()) -> CampaignDataset:
    """A Campaign collected: every (chip, voltage) cell of its grid, held
    packed in one byte grid per kind (references, samples) as each chip's
    block arrives."""
    n_volts, width = len(config.voltages), -(-config.id_length // 8)
    size = config.samples_per_chip * width
    # np.empty maps pages only as chips fill them, and a grid too large to
    # hold fails here with numpy's message, before any chip is sampled.
    refs = split(np.empty(n_volts * config.n_chips * width, dtype=np.uint8), n_volts)
    cells = split(np.empty(n_volts * config.n_chips * size, dtype=np.uint8), n_volts)
    for c, (chip_refs, chip_cells) in enumerate(Campaign(chips, config, ro_params, coupling)):
        for k in range(n_volts):
            refs[k][c * width:(c + 1) * width] = chip_refs[k]
            cells[k][c * size:(c + 1) * size] = chip_cells[k]
    return CampaignDataset(config, ro_params, coupling, dict(zip(config.voltages, refs)),
                           dict(zip(config.voltages, cells)))


def voltage_sweep(campaign: CampaignDataset | Campaign, reference_voltage: float | None = None
                  ) -> list[tuple[float, float]]:
    """Shift of the mean Hamming distance at each voltage, vs. operation
    at the reference voltage.

    For each voltage V the mean of HD(R_i at V0, R'_{i,t} at V) is taken
    over chips and samples; the series reports that mean minus its value
    at V0, paired with dV = V - V0.  Mismatches are counted chip by chip
    on the packed samples.
    """
    cfg = campaign.config
    v0 = campaign.ro_params.reference_voltage if reference_voltage is None else reference_voltage
    if v0 not in cfg.voltages:
        raise ValueError(f"reference voltage {v0} not in dataset voltages")
    k0 = cfg.voltages.index(v0)
    mismatches = [0] * len(cfg.voltages)
    for refs, cells in campaign:
        ref = np.frombuffer(refs[k0], dtype=np.uint8)
        for k, chip_cells in enumerate(cells):
            rows = np.frombuffer(chip_cells, dtype=np.uint8).reshape(-1, ref.size)
            mismatches[k] += int(np.bitwise_count(rows ^ ref).sum())
    n = cfg.n_chips * cfg.samples_per_chip
    return [(v - v0, m / n - mismatches[k0] / n) for v, m in zip(cfg.voltages, mismatches)]


def fit_sweep(series: list[tuple[float, float]]) -> dict:
    """OLS fit of the HD shift against |dV| (drift magnitude is symmetric
    in the sign of the voltage offset)."""
    return linear_fit([(abs(dv), shift) for dv, shift in series])
