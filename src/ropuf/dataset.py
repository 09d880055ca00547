"""Campaign datasets held as packed bytes, and their file round trip.

A dataset holds, per voltage, every chip's enrolled reference and every
(chip, sample) word as packed bytes: ceil(L/8) bytes per word, zero pad
bits first, then bit 0 as the most significant bit, so a word's bytes
read big-endian are its hex word's value.  This is the layout
sampler.pack_rows writes.  Nothing here imports numpy, so evaluating a
saved dataset never loads it.  A sidecar records the stream version of
its samples; the current one, STREAM_VERSION, is defined in config with
the rest of the sidecar's schema.
"""
from __future__ import annotations

import json
import os
import re
from collections.abc import Iterator
from dataclasses import dataclass, field
from pathlib import Path

from . import ro
from .config import STREAM_VERSION, CampaignConfig, RunConfig, from_dict, to_dict
from .errors import DatasetError

CSV_HEADER = ["chip_id", "voltage", "sample_index", "word_hex"]


def split(packed, parts: int) -> list[memoryview]:
    """packed bytes cut into `parts` equal views, none of them a copy."""
    view = memoryview(packed)
    size = len(view) // parts
    return [view[i * size:(i + 1) * size] for i in range(parts)]


def hex_words(packed, length: int) -> Iterator[str]:
    """Hex word of each ceil(length/8)-byte word of packed bytes: bit 0
    most significant, exactly ceil(length/4) lower-case digits.  Each is
    sliced from packed.hex() as it is taken, so no list of words is built."""
    text = packed.hex()
    step = 2 * -(-length // 8)  # digits per padded word
    lead = step - (length + 3) // 4  # leading digits that hold only pad bits
    return (text[i + lead:i + step] for i in range(0, len(text), step))


@dataclass
class CampaignDataset:
    """Complete (chip, voltage, sample) grid plus enrolled references:
    per voltage, the n_chips references and then the n_chips * T samples,
    chip by chip, each as packed bytes (any bytes-like object).  Iterating
    it yields the chip blocks a chipsim.Campaign yields."""

    config: CampaignConfig
    ro_params: ro.RoParams
    coupling: ro.Coupling
    references: dict[float, bytes]
    samples: dict[float, bytes] = field(repr=False)
    stream_version: int = STREAM_VERSION

    def __iter__(self):
        """Per chip, once the grid is checked complete: (refs, cells), its
        reference and its T samples at each voltage, as views of the held
        bytes."""
        self.check_complete()
        cfg = self.config
        width = -(-cfg.id_length // 8)
        size = cfg.samples_per_chip * width
        refs = [memoryview(self.references[v]) for v in cfg.voltages]
        cells = [memoryview(self.samples[v]) for v in cfg.voltages]
        for c in range(cfg.n_chips):
            yield ([r[c * width:(c + 1) * width] for r in refs],
                   [s[c * size:(c + 1) * size] for s in cells])

    def check_complete(self) -> None:
        cfg = self.config
        width = -(-cfg.id_length // 8)
        for v in cfg.voltages:
            if len(self.references.get(v, b"")) != cfg.n_chips * width:
                raise DatasetError(f"missing or ragged references at {v} V")
            if len(self.samples.get(v, b"")) != cfg.n_chips * cfg.samples_per_chip * width:
                raise DatasetError(f"missing or ragged samples at {v} V")


def save_dataset(campaign, csv_path: str | Path, sidecar_path: str | Path) -> None:
    """CSV of samples (hex words, bit 0 most significant) plus a JSON
    sidecar carrying the configuration, seed, and enrolled references, of
    a chipsim.Campaign or a CampaignDataset.  Rows are written chip by
    chip as the campaign yields them.  Both files are renamed into place,
    the sidecar last, only once every chip is written; on any error the
    partial files are removed."""
    cfg = campaign.config
    partial = [Path(f"{p}.partial") for p in (csv_path, sidecar_path)]
    ref_words = []  # per chip, its hex reference at each voltage
    try:
        with open(partial[0], "w", newline="") as fh:  # CSV lines end in \r\n
            fh.write(",".join(CSV_HEADER) + "\r\n")
            for c, (refs, cells) in enumerate(campaign):
                ref_words.append(list(hex_words(b"".join(refs), cfg.id_length)))
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


def _decode_grid(rows, cfg: CampaignConfig, depth: int, what: str, room: int) -> bytearray:
    """Packed bytes of the hex words in rows, by voltage, chip and index:
    (place, (chip, voltage, index, word)) pairs, the four as strings, that
    must hold exactly one word per grid cell of n_voltages x n_chips x depth.
    Each word is decoded straight into its cell's slot of the packed bytes,
    so no word outlives its row.
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
    return packed


def load_dataset(csv_path: str | Path, sidecar_path: str | Path) -> CampaignDataset:
    import csv  # only loading parses CSV: save_dataset writes its lines by hand

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
    if type(version) is not int or not 1 <= version <= STREAM_VERSION:
        raise DatasetError(f"sidecar stream_version {version!r} is not an integer "
                           f"from 1 to {STREAM_VERSION}")
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
    n_volts = len(cfg.voltages)
    dataset = CampaignDataset(cfg, run.ro_params, run.coupling,
                              dict(zip(cfg.voltages, split(refs, n_volts))),
                              dict(zip(cfg.voltages, split(cells, n_volts))), version)
    dataset.check_complete()
    return dataset
