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

import csv
import json
import os
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import ro
from .config import CampaignConfig, RunConfig, from_dict, to_dict
from .errors import ConfigurationError, DatasetError
from .metrics import linear_fit
from .rng import (TAG_ENROLL, TAG_ENROLL_EXTEND, TAG_EXTEND, TAG_REALIZE, TAG_RO1, TAG_RO2,
                  keyed_rng)
from .sampler import (PufUnit, draw_rows, hex_words, modal_row, normal_widths, pack_rows,
                      sample_rows, unpack_rows)
# Not called here: perfbench/traced_cli.py wraps these names as chipsim
# attributes, so they stay importable from this module.
from .sampler import enroll_id, sample_word  # noqa: F401

# Output bits of run_campaign follow version 2 of the stream layout:
# per (chip, unit) streams for RO1, RO2 and enrollment.  Version 1 drew
# one stream per sample, whose RO2 jitter moved with the voltage.
STREAM_VERSION = 2

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
class CampaignDataset:
    """Complete (chip, voltage, sample) grid plus enrolled references:
    per voltage, an (n_chips, L) reference bit array and an
    (n_chips, T, ceil(L/8)) array of samples packed as pack_rows lays
    them out, eight bits to a byte.  Iterating it yields the chip blocks
    a Campaign yields."""

    config: CampaignConfig
    ro_params: ro.RoParams
    coupling: ro.Coupling
    references: dict[float, np.ndarray]
    samples: dict[float, np.ndarray] = field(repr=False)
    stream_version: int = STREAM_VERSION

    def __iter__(self):
        """Per chip, once the grid is checked complete: its references and
        views of its held packed samples, by voltage."""
        self.check_complete()
        vs = self.config.voltages
        for c in range(self.config.n_chips):
            yield np.array([self.references[v][c] for v in vs]), [self.samples[v][c] for v in vs]

    def check_complete(self) -> None:
        cfg = self.config
        packed = (cfg.n_chips, cfg.samples_per_chip, -(-cfg.id_length // 8))
        for v in cfg.voltages:
            if np.shape(self.references.get(v)) != (cfg.n_chips, cfg.id_length):
                raise DatasetError(f"missing or ragged references at {v} V")
            if np.shape(self.samples.get(v)) != packed:
                raise DatasetError(f"missing or ragged samples at {v} V")


@dataclass
class Campaign:
    """A campaign sampled on demand: iterating it yields, chip by chip, a
    block (refs, cells) of the (n_voltages, L) reference bits and the
    (n_voltages, T, ceil(L/8)) samples packed by pack_rows, so a consumer
    holds one chip's block.  Each unit draws its enrollment block and sample
    rows once and evaluates them at every voltage, in this process.  Every
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
        b1w, n2 = normal_widths(lw)
        n_samples = cfg.samples_per_chip
        for chip in self.chips:
            c = chip.chip_id
            refs = np.empty((len(voltages), cfg.id_length), dtype=np.uint8)
            cells = np.empty((len(voltages), n_samples, cfg.id_length), dtype=np.uint8)
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
            yield refs, pack_rows(cells)


def run_campaign(chips: list[Chip], config: CampaignConfig, ro_params: ro.RoParams,
                 coupling: ro.Coupling = ro.Coupling.none()) -> CampaignDataset:
    """A Campaign collected: every (chip, voltage) cell of its grid, its
    samples held packed as each chip's block arrives."""
    grid = (len(config.voltages), config.n_chips)
    refs = np.empty(grid + (config.id_length,), dtype=np.uint8)
    cells = np.empty(grid + (config.samples_per_chip, -(-config.id_length // 8)), dtype=np.uint8)
    campaign = Campaign(chips, config, ro_params, coupling)
    for c, (chip_refs, chip_cells) in enumerate(campaign):
        refs[:, c], cells[:, c] = chip_refs, chip_cells
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
        ref = pack_rows(refs[k0])
        for k, chip_cells in enumerate(cells):
            mismatches[k] += int(np.bitwise_count(chip_cells ^ ref).sum())
    n = cfg.n_chips * cfg.samples_per_chip
    return [(v - v0, m / n - mismatches[k0] / n) for v, m in zip(cfg.voltages, mismatches)]


def fit_sweep(series: list[tuple[float, float]]) -> dict:
    """OLS fit of the HD shift against |dV| (drift magnitude is symmetric
    in the sign of the voltage offset)."""
    return linear_fit([(abs(dv), shift) for dv, shift in series])


# --- file round trip ---------------------------------------------------

CSV_HEADER = ["chip_id", "voltage", "sample_index", "word_hex"]


def save_dataset(campaign: CampaignDataset | Campaign, csv_path: str | Path,
                 sidecar_path: str | Path) -> None:
    """CSV of samples (hex words, bit 0 most significant) plus a JSON
    sidecar carrying the configuration, seed, and enrolled references.
    Rows are written chip by chip as the campaign yields them.  Both files
    are renamed into place, the sidecar last, only once every chip is
    written; on any error the partial files are removed."""
    cfg = campaign.config
    partial = [Path(f"{p}.partial") for p in (csv_path, sidecar_path)]
    ref_words = []  # per chip, its hex reference at each voltage
    try:
        with open(partial[0], "w", newline="") as fh:  # CSV lines end in \r\n
            fh.write(",".join(CSV_HEADER) + "\r\n")
            for c, (refs, cells) in enumerate(campaign):
                ref_words.append(hex_words(pack_rows(refs), cfg.id_length))
                for v, chip_cells in zip(cfg.voltages, cells):
                    fh.writelines(f"{c},{v!r},{t},{word}\r\n"
                                  for t, word in enumerate(hex_words(chip_cells, cfg.id_length)))
                # Otherwise the text layer keeps up to 8192 characters of these
                # lines, as separate strings, while the next chip is sampled.
                fh.flush()
        sidecar = {
            "stream_version": campaign.stream_version,
            "config": to_dict(RunConfig(campaign.ro_params, cfg, campaign.coupling),
                              ("ro", "campaign", "coupling")),
            "master_seed": cfg.master_seed,
            "references": {str(c): dict(zip(map(repr, cfg.voltages), words))
                           for c, words in enumerate(ref_words)},
        }
        partial[1].write_text(json.dumps(sidecar, indent=2) + "\n")
        os.replace(partial[0], csv_path)
        os.replace(partial[1], sidecar_path)
    finally:  # removes the partial files after an error; the renames leave none
        for p in partial:
            p.unlink(missing_ok=True)


# Grid fields as save_dataset writes them: chip and sample index in ASCII
# digits, the voltage as repr writes a float or an int.  int() and
# float() would also take a sign, spaces, '_' and non-ASCII digits.
_INDEX = re.compile(r"[0-9]+")
_VOLTS = re.compile(r"-?[0-9]+(\.[0-9]+)?(e[+-][0-9]+)?")


def _decode_grid(rows, cfg: CampaignConfig, depth: int, what: str, room: int) -> np.ndarray:
    """(n_voltages, n_chips, depth, ceil(L/8)) packed bytes of the hex words in rows:
    (place, (chip, voltage, index, word)) pairs, the four as strings, that
    must hold exactly one word per grid cell.  Each word is decoded straight
    into its cell's slot of the packed bytes, so no word outlives its row.
    A bad word keeps the message of the first check it fails, in the order
    digit count, hex digits, byte count (fromhex skips whitespace), pad bits.
    The grid is claimed by the sidecar; a claim of more cells than room,
    the most words the input can hold, is refused before any allocation."""
    n = cfg.n_chips
    index = {v: k for k, v in enumerate(cfg.voltages)}
    n_cells = len(index) * n * depth
    if n_cells > room:
        grid = f"{len(index)} voltages x {n} chips" + (f" x {depth} samples" if depth > 1 else "")
        raise DatasetError(f"{what}s: the sidecar claims {grid} = {n_cells} words, "
                           f"but the input holds at most {room}")
    digits, n_bytes = -(-cfg.id_length // 4), -(-cfg.id_length // 8)
    lead, top = "0" * (digits % 2), 256 >> (-cfg.id_length % 8)  # whole bytes; zero pad bits
    packed = bytearray(n_cells * n_bytes)
    slots = memoryview(packed)  # slice writes through a view cost less, and never resize
    filled = bytearray(n_cells)
    bad = {}  # cell -> (word, why it does not decode to a slot of zero pad bits)

    def cell_name(c, v, t) -> str:
        return f"chip {c} at {v} V" + (f", sample {t}" if depth > 1 else "")

    chips, volts = {}, {}  # field text -> value: each distinct text is checked once
    for place, fields in rows:
        try:
            c, v, t, word = fields  # ValueError unless 4 fields
        except ValueError as exc:
            raise DatasetError(f"{what} {place}: {exc}") from exc
        chip, volt = chips.get(c), volts.get(v)
        if chip is None or volt is None or not (t.isascii() and t.isdigit()):  # as _INDEX
            if not (_INDEX.fullmatch(c) and _VOLTS.fullmatch(v) and _INDEX.fullmatch(t)):
                raise DatasetError(f"{what} {place}: chip {c!r} and index {t!r} must be "
                                   f"digits and voltage {v!r} a decimal number")
            chip, volt = chips.setdefault(c, int(c)), volts.setdefault(v, float(v))
        c, v, t = chip, volt, int(t)
        k = index.get(v)
        if k is None or not (0 <= c < n and 0 <= t < depth):
            raise DatasetError(f"{what} {place}: {cell_name(c, v, t)} is outside the grid")
        cell = (k * n + c) * depth + t
        if filled[cell]:
            raise DatasetError(f"{what} {place}: a second word for {cell_name(c, v, t)}")
        filled[cell] = 1
        try:
            raw = bytes.fromhex(lead + word)  # skips whitespace, so lengths are checked
            if len(raw) == n_bytes and len(word) == digits and raw[0] < top:
                slots[cell * n_bytes:(cell + 1) * n_bytes] = raw
                continue
            fault = ("hex words must hold hex digits only" if len(raw) != n_bytes
                     else f"hex word does not fit in {cfg.id_length} bits")  # a pad bit is set
        except ValueError as exc:  # not hex
            fault = str(exc)
        if len(word) != digits:  # checked first, so its message wins
            fault = f"hex words of a {cfg.id_length}-bit ID must have {digits} digits"
        bad[cell] = word, fault
    missing = filled.find(0)
    first = min([*bad, n_cells if missing < 0 else missing])
    if first < n_cells:  # name the first missing or bad word, in cell order
        (k, c), t = divmod(first // depth, n), first % depth
        name = f"{what} for {cell_name(c, cfg.voltages[k], t)}"
        if not filled[first]:
            raise DatasetError(f"{name}: missing")
        word, fault = bad[first]
        raise DatasetError(f"{name}: bad hex word {word!r}: {fault}")
    return np.frombuffer(packed, dtype=np.uint8).reshape(len(index), n, depth, n_bytes)


def load_dataset(csv_path: str | Path, sidecar_path: str | Path) -> CampaignDataset:
    try:
        sidecar = json.loads(Path(sidecar_path).read_text())
        if type(sidecar) is not dict:
            raise ValueError(f"must be a JSON object, not {type(sidecar).__name__}")
        if "config" not in sidecar:
            raise ValueError("missing key 'config'")
        run = from_dict(sidecar["config"])
    except (KeyError, TypeError, ValueError, RecursionError) as exc:  # JSON or schema
        raise DatasetError(f"bad sidecar: {exc}") from exc
    cfg = run.campaign
    version = sidecar.get("stream_version", 1)
    if type(version) is not int or version not in (1, STREAM_VERSION):
        raise DatasetError(f"sidecar stream_version {version!r} is not 1 or {STREAM_VERSION}")
    seed = sidecar.get("master_seed")
    if type(seed) is not int or seed != cfg.master_seed:
        raise DatasetError(f"sidecar master_seed {seed!r} != config.campaign.master_seed")
    refs = sidecar.get("references")
    if not isinstance(refs, dict) or not all(isinstance(p, dict) for p in refs.values()):
        raise DatasetError("sidecar 'references' must map chip ids to {voltage: hex word}")
    for c, per_chip in refs.items():
        for v, h in per_chip.items():
            if not isinstance(h, str):
                raise DatasetError(f"sidecar reference [{c!r}][{v!r}]: {h!r} must be a hex string")
    refs = _decode_grid(((f"[{c!r}][{v!r}]", (c, v, "0", h)) for c, per_chip in refs.items()
                         for v, h in per_chip.items()), cfg, 1, "sidecar reference",
                        sum(map(len, refs.values())))
    # A byte that is not UTF-8 decodes to a lone surrogate, which no field
    # check accepts, so it is reported with its line or cell.
    with open(csv_path, newline="", errors="surrogateescape") as fh:
        reader = csv.reader(fh)
        # A row holds its word plus at least 7 bytes: three 1-character
        # fields, three commas and a newline.
        room = os.fstat(fh.fileno()).st_size // (-(-cfg.id_length // 4) + 7)
        try:
            if (header := next(reader, None)) != CSV_HEADER:
                raise DatasetError(f"unexpected CSV header: {header}")
            cells = _decode_grid(((reader.line_num, row) for row in reader if row),
                                 cfg, cfg.samples_per_chip, "CSV line", room)
        except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
            raise DatasetError(f"CSV line {reader.line_num}: {exc}") from exc
    dataset = CampaignDataset(cfg, run.ro_params, run.coupling,
                              dict(zip(cfg.voltages, unpack_rows(refs[:, :, 0], cfg.id_length))),
                              dict(zip(cfg.voltages, cells)), version)
    dataset.check_complete()
    return dataset
