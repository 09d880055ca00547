"""Chip populations and measurement campaigns.

A campaign realizes N chips from one parameter family, enrolls a
reference ID per chip and voltage, then collects T fresh-jitter samples
per (chip, voltage) cell.  Every stochastic draw comes from a stream
keyed by (master seed, purpose, chip, unit, sample), so the full grid,
any sub-grid, and any worker partitioning produce identical bits.
"""
from __future__ import annotations

import csv
import json
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import bch, ro
from .config import CampaignConfig, RunConfig, from_dict, to_dict
from .errors import ConfigurationError, DatasetError, DecodeFailure
from .metrics import linear_fit
from .rng import TAG_ENROLL, TAG_REALIZE, TAG_SAMPLE, keyed_rng
from .sampler import (PufUnit, ResponseWord, compose_id, enroll_id, hex_to_rows,
                      rows_to_hex, sample_word)


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
class CampaignDataset:
    """Complete (chip, voltage, sample) grid plus enrolled references:
    per voltage, an (n_chips, L) reference array and an (n_chips, T, L)
    sample array."""

    config: CampaignConfig
    ro_params: ro.RoParams
    coupling: ro.Coupling
    references: dict[float, np.ndarray]
    samples: dict[float, np.ndarray] = field(repr=False)

    @property
    def reference_voltage(self) -> float:
        return self.ro_params.reference_voltage

    def reference(self, chip_id: int, v: float) -> ResponseWord:
        return ResponseWord(self.references[v][chip_id])

    def sample_array(self, chip_id: int, v: float) -> np.ndarray:
        return self.samples[v][chip_id]

    def check_complete(self) -> None:
        cfg = self.config
        for v in cfg.voltages:
            if np.shape(self.references.get(v)) != (cfg.n_chips, cfg.id_length):
                raise DatasetError(f"missing or ragged references at {v} V")
            if np.shape(self.samples.get(v)) != (cfg.n_chips, cfg.samples_per_chip, cfg.id_length):
                raise DatasetError(f"missing or ragged samples at {v} V")


def _chip_cells(args) -> tuple[int, np.ndarray, np.ndarray]:
    # Jitter streams are keyed by (chip, unit, sample) but NOT by voltage:
    # sweeping a voltage grid re-measures the same enable cycles under
    # common random numbers, so a pair with equal voltage sensitivities
    # produces bit-identical words at every voltage (and the drift
    # statistic is exactly zero, not just zero in expectation).
    chip, voltages, t_samples, t_enroll, master_seed = args
    lw = chip.units[0].word_length
    refs = np.empty((len(voltages), len(chip.units) * lw), dtype=np.uint8)
    cells = np.empty((len(voltages), t_samples, refs.shape[1]), dtype=np.uint8)
    for k, v in enumerate(voltages):
        refs[k] = compose_id([
            enroll_id(unit, t_enroll, v,
                      keyed_rng(master_seed, TAG_ENROLL, chip.chip_id, u))
            for u, unit in enumerate(chip.units)]).bits
        for t in range(t_samples):
            for u, unit in enumerate(chip.units):
                cells[k, t, u * lw:(u + 1) * lw] = sample_word(
                    unit, v, keyed_rng(master_seed, TAG_SAMPLE, chip.chip_id, u, t)).bits
    return chip.chip_id, refs, cells


def run_campaign(chips: list[Chip], config: CampaignConfig,
                 ro_params: ro.RoParams, coupling: ro.Coupling = ro.Coupling.none(),
                 threads: int = 1) -> CampaignDataset:
    """Enroll and sample every (chip, voltage) cell of the campaign grid.

    Results are identical for any threads value: cells are keyed by grid
    indices, and each chip's block is stored at its chip id.
    """
    config.validate(ro_params)
    if len(chips) != config.n_chips:
        raise ConfigurationError("chip list does not match config.n_chips")
    if threads < 1:
        raise ConfigurationError(f"threads must be >= 1, got {threads}")
    jobs = [(chip, config.voltages, config.samples_per_chip,
             config.enroll_repetitions, config.master_seed) for chip in chips]
    grid = (len(config.voltages), config.n_chips)
    refs = np.empty(grid + (config.id_length,), dtype=np.uint8)
    cells = np.empty(grid + (config.samples_per_chip, config.id_length), dtype=np.uint8)
    # A fork pool starts all max_workers processes on the first submit.
    workers = min(threads, len(jobs), os.cpu_count() or 1)
    with ProcessPoolExecutor(max_workers=workers) if workers > 1 else nullcontext() as pool:
        for chip_id, chip_refs, chip_cells in (pool.map(_chip_cells, jobs) if pool
                                               else map(_chip_cells, jobs)):
            refs[:, chip_id], cells[:, chip_id] = chip_refs, chip_cells
    dataset = CampaignDataset(config=config, ro_params=ro_params, coupling=coupling,
                              references=dict(zip(config.voltages, refs)),
                              samples=dict(zip(config.voltages, cells)))
    dataset.check_complete()
    return dataset


def voltage_sweep(dataset: CampaignDataset, reference_voltage: float | None = None
                  ) -> list[tuple[float, float]]:
    """Shift of the mean Hamming distance at each voltage, vs. operation
    at the reference voltage.

    For each voltage V the mean of HD(R_i at V0, R'_{i,t} at V) is taken
    over chips and samples; the series reports that mean minus its value
    at V0, paired with dV = V - V0.
    """
    v0 = dataset.reference_voltage if reference_voltage is None else reference_voltage
    if v0 not in dataset.config.voltages:
        raise ValueError(f"reference voltage {v0} not in dataset voltages")

    refs = dataset.references[v0][:, None, :]

    def mean_hd(v: float) -> float:
        cells = dataset.samples[v]
        return int(np.count_nonzero(cells != refs)) / (cells.shape[0] * cells.shape[1])

    base = mean_hd(v0)
    return [(v - v0, mean_hd(v) - base) for v in dataset.config.voltages]


def fit_sweep(series: list[tuple[float, float]]) -> dict:
    """OLS fit of the HD shift against |dV| (drift magnitude is symmetric
    in the sign of the voltage offset)."""
    return linear_fit([(abs(dv), shift) for dv, shift in series])


def correct_for_voltage(raw_id: ResponseWord, v_measured: float,
                        calibration: dict[float, ResponseWord]) -> ResponseWord:
    """Correct a raw ID using the calibration entry nearest the measured
    supply voltage (ties resolve to the lower voltage).

    The selected enrolled reference serves as the decoding anchor: the
    protected 31 bits are corrected toward it through the error-correcting
    code, and any remaining bits ride along unprotected.  Raises
    DecodeFailure if the raw ID is too far from the anchor.
    """
    if not calibration:
        raise ValueError("calibration table is empty")
    anchor_v = min(calibration, key=lambda vv: (abs(vv - v_measured), vv))
    anchor = calibration[anchor_v]
    if len(raw_id) != len(anchor):
        raise ValueError("raw ID and calibration reference lengths differ")
    if len(raw_id) < bch.N:
        raise ValueError(f"ID must be at least {bch.N} bits for correction")
    offset = anchor.bits[:bch.N]
    fixed, n_errors = bch.decode_rows(raw_id.bits[None, :bch.N] ^ offset)
    if n_errors[0] < 0:
        raise DecodeFailure(f"raw ID is more than {bch.T} errors from the {anchor_v} V anchor")
    return ResponseWord(np.concatenate([fixed[0] ^ offset, raw_id.bits[bch.N:]]))


# --- file round trip ---------------------------------------------------

CSV_HEADER = ["chip_id", "voltage", "sample_index", "word_hex"]


def save_dataset(dataset: CampaignDataset, csv_path: str | Path,
                 sidecar_path: str | Path) -> None:
    """CSV of samples (hex words, bit 0 most significant) plus a JSON
    sidecar carrying the configuration, seed, and enrolled references."""
    cfg = dataset.config
    with open(csv_path, "w", newline="") as fh:  # CSV lines end in \r\n
        fh.write(",".join(CSV_HEADER) + "\r\n")
        for c in range(cfg.n_chips):
            for v in cfg.voltages:
                fh.writelines(f"{c},{v!r},{t},{word}\r\n" for t, word in
                              enumerate(rows_to_hex(dataset.sample_array(c, v))))
    words = {v: rows_to_hex(dataset.references[v]) for v in cfg.voltages}
    sidecar = {
        "config": to_dict(RunConfig(dataset.ro_params, cfg, dataset.coupling),
                          ("ro", "campaign", "coupling")),
        "master_seed": cfg.master_seed,
        "references": {str(c): {repr(v): words[v][c] for v in cfg.voltages}
                       for c in range(cfg.n_chips)},
    }
    Path(sidecar_path).write_text(json.dumps(sidecar, indent=2) + "\n")


def _decode_grid(rows, cfg: CampaignConfig, depth: int, what: str) -> np.ndarray:
    """(n_voltages, n_chips, depth, L) bit array of the hex words in rows:
    (place, (chip, voltage, index, word)) pairs, the four as strings, that
    must hold exactly one word per grid cell."""
    n = cfg.n_chips
    index = {v: k for k, v in enumerate(cfg.voltages)}
    words = [None] * (len(index) * n * depth)

    def cell_name(c, v, t) -> str:
        return f"chip {c} at {v} V" + (f", sample {t}" if depth > 1 else "")

    for place, fields in rows:
        try:
            c, v, t, word = fields  # ValueError unless 4 fields
            c, v, t = int(c), float(v), int(t)
        except ValueError as exc:
            raise DatasetError(f"{what} {place}: {exc}") from exc
        k = index.get(v)
        if k is None or not (0 <= c < n and 0 <= t < depth):
            raise DatasetError(f"{what} {place}: {cell_name(c, v, t)} is outside the grid")
        cell = (k * n + c) * depth + t
        if words[cell] is not None:
            raise DatasetError(f"{what} {place}: a second word for {cell_name(c, v, t)}")
        words[cell] = word
    try:
        return hex_to_rows(words, cfg.id_length).reshape(len(index), n, depth, -1)
    except (TypeError, ValueError):  # name the first missing or bad word
        for cell, word in enumerate(words):
            try:
                hex_to_rows([word], cfg.id_length)
            except (TypeError, ValueError) as exc:
                (k, c), t = divmod(cell // depth, n), cell % depth
                raise DatasetError(f"{what} for {cell_name(c, cfg.voltages[k], t)}: " + (
                    "missing" if word is None else f"bad hex word {word!r}: {exc}")) from None
        raise


def load_dataset(csv_path: str | Path, sidecar_path: str | Path) -> CampaignDataset:
    try:
        sidecar = json.loads(Path(sidecar_path).read_text())
        run = from_dict(sidecar["config"])
    except (KeyError, TypeError, ValueError) as exc:  # ValueError: JSON or schema
        raise DatasetError(f"bad sidecar: {exc}") from exc
    cfg = run.campaign
    seed = sidecar.get("master_seed")
    if type(seed) is not int or seed != cfg.master_seed:
        raise DatasetError(f"sidecar master_seed {seed!r} != config.campaign.master_seed")
    refs = sidecar.get("references")
    if not isinstance(refs, dict) or not all(isinstance(p, dict) for p in refs.values()):
        raise DatasetError("sidecar 'references' must map chip ids to {voltage: hex word}")
    refs = _decode_grid(((f"[{c!r}][{v!r}]", (c, v, "0", h)) for c, per_chip in refs.items()
                         for v, h in per_chip.items()), cfg, 1, "sidecar reference")
    with open(csv_path, newline="") as fh:
        reader = csv.reader(fh)
        if (header := next(reader, None)) != CSV_HEADER:
            raise DatasetError(f"unexpected CSV header: {header}")
        cells = _decode_grid(((reader.line_num, row) for row in reader if row),
                             cfg, cfg.samples_per_chip, "CSV line")
    dataset = CampaignDataset(cfg, run.ro_params, run.coupling,
                              dict(zip(cfg.voltages, refs[:, :, 0])),
                              dict(zip(cfg.voltages, cells)))
    dataset.check_complete()
    return dataset
