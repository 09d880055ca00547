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
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import bch, ro
from .config import CampaignConfig, RunConfig, from_dict, to_dict
from .errors import ConfigurationError, DatasetError, DecodeFailure
from .metrics import linear_fit
from .rng import TAG_ENROLL, TAG_REALIZE, TAG_SAMPLE, keyed_rng
from .sampler import PufUnit, ResponseWord, compose_id, enroll_id, sample_word


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
    """Complete (chip, voltage, sample) grid plus enrolled references."""

    config: CampaignConfig
    ro_params: ro.RoParams
    coupling: ro.Coupling
    references: dict[int, dict[float, ResponseWord]]
    samples: dict[int, dict[float, np.ndarray]] = field(repr=False)

    @property
    def reference_voltage(self) -> float:
        return self.ro_params.reference_voltage

    def reference(self, chip_id: int, v: float) -> ResponseWord:
        return self.references[chip_id][v]

    def sample_array(self, chip_id: int, v: float) -> np.ndarray:
        return self.samples[chip_id][v]

    def check_complete(self) -> None:
        cfg = self.config
        for c in range(cfg.n_chips):
            for v in cfg.voltages:
                if c not in self.references or v not in self.references[c]:
                    raise DatasetError(f"missing reference for chip {c} at {v} V")
                arr = self.samples.get(c, {}).get(v)
                if arr is None or arr.shape != (cfg.samples_per_chip, cfg.id_length):
                    raise DatasetError(f"missing or ragged samples for chip {c} at {v} V")


def _chip_cells(args) -> tuple[int, dict, dict]:
    # Jitter streams are keyed by (chip, unit, sample) but NOT by voltage:
    # sweeping a voltage grid re-measures the same enable cycles under
    # common random numbers, so a pair with equal voltage sensitivities
    # produces bit-identical words at every voltage (and the drift
    # statistic is exactly zero, not just zero in expectation).
    chip, voltages, t_samples, t_enroll, master_seed = args
    refs: dict[float, ResponseWord] = {}
    rows: dict[float, np.ndarray] = {}
    n_units = len(chip.units)
    lw = chip.units[0].word_length
    for v in voltages:
        refs[v] = compose_id([
            enroll_id(unit, t_enroll, v,
                      keyed_rng(master_seed, TAG_ENROLL, chip.chip_id, u))
            for u, unit in enumerate(chip.units)])
        cell = np.empty((t_samples, n_units * lw), dtype=np.uint8)
        for t in range(t_samples):
            for u, unit in enumerate(chip.units):
                word = sample_word(
                    unit, v, keyed_rng(master_seed, TAG_SAMPLE, chip.chip_id, u, t))
                cell[t, u * lw:(u + 1) * lw] = word.bits
        rows[v] = cell
    return chip.chip_id, refs, rows


def run_campaign(chips: list[Chip], config: CampaignConfig,
                 ro_params: ro.RoParams, coupling: ro.Coupling = ro.Coupling.none(),
                 threads: int = 1) -> CampaignDataset:
    """Enroll and sample every (chip, voltage) cell of the campaign grid.

    Results are identical for any threads value: cells are keyed by grid
    indices, and assembly is ordered by chip id, not completion time.
    """
    config.validate(ro_params)
    if len(chips) != config.n_chips:
        raise ConfigurationError("chip list does not match config.n_chips")
    if threads < 1:
        raise ConfigurationError(f"threads must be >= 1, got {threads}")
    jobs = [(chip, config.voltages, config.samples_per_chip,
             config.enroll_repetitions, config.master_seed) for chip in chips]
    # A fork pool starts all max_workers processes on the first submit.
    workers = min(threads, len(jobs), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_chip_cells, jobs))
    else:
        results = [_chip_cells(job) for job in jobs]
    references, samples = {}, {}
    for chip_id, refs, rows in sorted(results, key=lambda r: r[0]):
        references[chip_id] = refs
        samples[chip_id] = rows
    dataset = CampaignDataset(config=config, ro_params=ro_params, coupling=coupling,
                              references=references, samples=samples)
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

    def mean_hd(v: float) -> float:
        total, count = 0, 0
        for c in range(dataset.config.n_chips):
            ref_bits = dataset.reference(c, v0).bits
            arr = dataset.sample_array(c, v)
            total += int(np.count_nonzero(arr != ref_bits[None, :]))
            count += arr.shape[0]
        return total / count

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

def save_dataset(dataset: CampaignDataset, csv_path: str | Path,
                 sidecar_path: str | Path) -> None:
    """CSV of samples (hex words, bit 0 most significant) plus a JSON
    sidecar carrying the configuration, seed, and enrolled references."""
    cfg = dataset.config
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["chip_id", "voltage", "sample_index", "word_hex"])
        for c in range(cfg.n_chips):
            for v in cfg.voltages:
                for t, row in enumerate(dataset.sample_array(c, v)):
                    writer.writerow([c, repr(v), t, ResponseWord(row).to_hex()])
    sidecar = {
        "config": to_dict(RunConfig(dataset.ro_params, cfg, dataset.coupling),
                          ("ro", "campaign", "coupling")),
        "master_seed": cfg.master_seed,
        "references": {
            str(c): {repr(v): dataset.reference(c, v).to_hex() for v in cfg.voltages}
            for c in range(cfg.n_chips)
        },
    }
    Path(sidecar_path).write_text(json.dumps(sidecar, indent=2) + "\n")


def _references_from_dict(d, id_length: int) -> dict[int, dict[float, ResponseWord]]:
    if not isinstance(d, dict) or not all(isinstance(p, dict) for p in d.values()):
        raise DatasetError("sidecar 'references' must map chip ids to {voltage: hex word}")
    try:
        return {int(c): {float(v): ResponseWord.from_hex(h, id_length)
                         for v, h in per_chip.items()}
                for c, per_chip in d.items()}
    except (TypeError, ValueError) as exc:
        raise DatasetError(f"bad sidecar reference: {exc}") from exc


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
    id_len = cfg.id_length
    references = _references_from_dict(sidecar.get("references"), id_len)
    samples: dict[int, dict[float, list]] = {}
    with open(csv_path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != ["chip_id", "voltage", "sample_index", "word_hex"]:
            raise DatasetError(f"unexpected CSV header: {reader.fieldnames}")
        for row in reader:
            if None in row or None in row.values():
                raise DatasetError(f"CSV line {reader.line_num}: expected 4 fields")
            try:
                c, v = int(row["chip_id"]), float(row["voltage"])
                t = int(row["sample_index"])
            except ValueError as exc:
                raise DatasetError(f"CSV line {reader.line_num}: {exc}") from exc
            samples.setdefault(c, {}).setdefault(v, []).append((t, row["word_hex"]))
    arrays: dict[int, dict[float, np.ndarray]] = {}
    for c, per_chip in samples.items():
        arrays[c] = {}
        for v, rows in per_chip.items():
            rows.sort()
            if [t for t, _ in rows] != list(range(len(rows))):
                raise DatasetError(f"sample indices not contiguous for chip {c} at {v} V")
            try:
                arrays[c][v] = np.stack([ResponseWord.from_hex(h, id_len).bits
                                         for _, h in rows])
            except ValueError as exc:
                raise DatasetError(f"bad sample for chip {c} at {v} V: {exc}") from exc
    dataset = CampaignDataset(cfg, run.ro_params, run.coupling, references, arrays)
    dataset.check_complete()
    return dataset

