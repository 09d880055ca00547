"""One schema for run configurations and dataset sidecars.

A run configuration has the sections `ro`, `campaign`, `coupling` and
`flags`; `dataset.json` carries the first three under `config`, next to
its `stream_version`, whose current value, `STREAM_VERSION`, is kept
here.  `SCHEMA` lists each field of each section once, and `from_dict`
and `to_dict` read and write every section from it, so both files pass
the same checks.
"""
from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

from . import ro
from .errors import ConfigurationError

# Output bits of chipsim.Campaign follow version 3 of the stream
# layout: per (chip, unit) streams for RO1, RO2 and enrollment, with rows
# of B1 = (3*(2L-1)+1)//2 + 8 RO1 normals.  Version 2 drew 4*(2L-1)+8 of
# them per row, and version 1 one stream per sample, whose RO2 jitter
# moved with the voltage.  Datasets of every version load.
STREAM_VERSION = 3


def normal_widths(word_length: int) -> tuple[int, int]:
    """(B1, n2): standard normals per row for RO1 and RO2.

    RO2 needs n2 = 2L-1 half-periods to reach rising edge L-1.  RO1 gets
    B1 = (3*n2+1)//2 + 8 (55 for L = 16), enough to cover them while T2/T1
    stays below about 1.5; a row that runs short extends from its own
    stream (see chipsim.sample_rows).  Both depend on L only, so a row is
    the same enable cycle at every voltage (common random numbers across a
    sweep).
    """
    n2 = 2 * word_length - 1
    return (3 * n2 + 1) // 2 + 8, n2


# Enrollment and sample rows are drawn this many at a time, which bounds
# the kernel's working memory; rows have a fixed width, so the bits do not
# depend on it.
CHUNK_ROWS = 64

# csv.reader's default field_size_limit(), in characters: a dataset row
# holds an ID of at most 4 bits a hex digit times this.  Kept here, since
# the sampling commands load no csv.
CSV_FIELD_LIMIT = 131072
MAX_ID_BITS = 4 * CSV_FIELD_LIMIT


@dataclass(frozen=True)
class CampaignConfig:
    n_chips: int = 10
    pairs_per_id: int = 2
    word_length: int = 16
    samples_per_chip: int = 5000
    enroll_repetitions: int = 99
    voltages: tuple[float, ...] = (1.3,)
    master_seed: int = 20260809
    id_length: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "voltages", tuple(self.voltages))
        if self.id_length is None:
            object.__setattr__(self, "id_length", self.pairs_per_id * self.word_length)

    def validate(self, params: ro.RoParams | None = None) -> None:
        if self.n_chips < 2:
            raise ConfigurationError("n_chips must be >= 2 for inter-chip metrics")
        if self.pairs_per_id < 1 or self.word_length < 1:
            raise ConfigurationError("pairs_per_id and word_length must be >= 1")
        # Each chip's arrays must be ones numpy can index: a larger campaign
        # is refused here, before any output, not by numpy mid-run.  First,
        # so that no message below formats an int past str()'s digit limit.
        bits, n_volts = self.pairs_per_id * self.word_length, len(self.voltages)
        for array, fields, elements in (
                ("one chunk's normals", "word_length",
                 CHUNK_ROWS * sum(normal_widths(self.word_length))),
                ("a chip's enrollment block",
                 "voltages_v x enroll_repetitions x pairs_per_id x word_length",
                 n_volts * self.enroll_repetitions * bits),
                ("a chip's samples",
                 "voltages_v x samples_per_chip x ceil(pairs_per_id x word_length / 8)",
                 n_volts * self.samples_per_chip * -(-bits // 8))):
            if elements > sys.maxsize:
                raise ConfigurationError(f"{fields}: {array} would hold more than "
                                         f"sys.maxsize ({sys.maxsize}) elements")
        # So that `metrics` reads every dataset `simulate` writes.
        if bits > MAX_ID_BITS:
            raise ConfigurationError(f"pairs_per_id x word_length: an ID must fit in a dataset "
                                     f"row's {CSV_FIELD_LIMIT} hex digits, at most "
                                     f"{MAX_ID_BITS} bits")
        if self.id_length != self.pairs_per_id * self.word_length:
            raise ConfigurationError(
                f"id_length {self.id_length} != pairs_per_id*word_length "
                f"{self.pairs_per_id * self.word_length}")
        if self.samples_per_chip < 1:
            raise ConfigurationError("samples_per_chip must be >= 1")
        if self.enroll_repetitions < 1:
            raise ConfigurationError("enroll_repetitions must be >= 1")
        if self.master_seed < 0:
            raise ConfigurationError(f"master_seed must be >= 0, got {self.master_seed}")
        if not self.voltages:
            raise ConfigurationError("voltages must be non-empty")
        if len(set(self.voltages)) != len(self.voltages):
            raise ConfigurationError(f"voltages_v has duplicates: {list(self.voltages)}")
        if params is not None:
            params.validate()
            # Reject configurations that could leave the linear voltage
            # model (worst realistic sensitivity draw at the worst voltage).
            gamma_max = abs(params.voltage_sensitivity_mean) + \
                6.0 * params.voltage_sensitivity_sigma
            dv_max = max(abs(v - params.reference_voltage) for v in self.voltages)
            if gamma_max * dv_max >= 0.5:
                raise ConfigurationError(
                    "voltages: |gamma*(V-V0)| may reach 0.5; outside model range")
            if params.reference_voltage not in self.voltages:
                raise ConfigurationError(
                    f"voltages_v must include reference_voltage_v "
                    f"{params.reference_voltage}: references are enrolled there")


@dataclass(frozen=True)
class Flags:
    """Reports `simulate` writes next to the dataset."""

    post_bch: bool = False
    emit_histograms: bool = True
    emit_sweep: bool = False


@dataclass(frozen=True)
class RunConfig:
    """Everything one simulation run needs."""

    ro_params: ro.RoParams = field(default_factory=ro.RoParams)
    campaign: CampaignConfig = field(default_factory=CampaignConfig)
    coupling: ro.Coupling = field(default_factory=ro.Coupling)
    flags: Flags = field(default_factory=Flags)


# Exact JSON types, (name in messages, check): neither True nor 3.0 is an
# int, and a number is one that a float equals (the comparison of an int
# with a float is exact, so a 401-digit int fails it without an overflow).
# A tuple passes as a list, since to_dict leaves `voltages` a tuple.
INT = ("an integer", lambda v: type(v) is int)
NUMBER = ("a number that a finite float equals",
          lambda v: type(v) in (int, float) and abs(v) <= sys.float_info.max and float(v) == v)
BOOL = ("true or false", lambda v: type(v) is bool)
STRING = ("a string", lambda v: type(v) is str)
OBJECT = ("an object", lambda v: type(v) is dict)
NUMBERS = ("a list of numbers",
           lambda v: type(v) in (list, tuple) and all(map(NUMBER[1], v)))

# section: (RunConfig attribute, dataclass, fields: (JSON key, attribute
# or None if named as the key, type, required)).  A field left out takes its
# dataclass default; a section left out reads as {}.
SCHEMA = {
    "ro": ("ro_params", ro.RoParams, (
        ("nominal_period_s", "nominal_period", NUMBER, True),
        ("process_sigma", None, NUMBER, True),
        ("jitter_sigma", None, NUMBER, True),
        ("voltage_sensitivity_per_v", "voltage_sensitivity_mean", NUMBER, True),
        ("voltage_sensitivity_sigma_per_v", "voltage_sensitivity_sigma", NUMBER, True),
        ("reference_voltage_v", "reference_voltage", NUMBER, True))),
    "campaign": ("campaign", CampaignConfig, (
        ("n_chips", None, INT, True),
        ("pairs_per_id", None, INT, True),
        ("word_length", None, INT, True),
        ("samples_per_chip", None, INT, True),
        ("enroll_repetitions", None, INT, True),
        ("voltages_v", "voltages", NUMBERS, True),
        ("master_seed", None, INT, True),
        ("id_length", None, INT, False))),
    "coupling": ("coupling", ro.Coupling, (
        ("mode", None, STRING, False),
        ("strength", None, NUMBER, False))),
    "flags": ("flags", Flags, (
        ("post_bch", None, BOOL, False),
        ("emit_histograms", None, BOOL, False),
        ("emit_sweep", None, BOOL, False))),
}


def _checked(where: str, values: dict, fields) -> dict:
    """values, checked for unknown and missing keys and for each field's type."""
    unknown = sorted(set(values) - {f[0] for f in fields})
    missing = [f[0] for f in fields if f[3] and f[0] not in values]
    if unknown or missing:
        raise ConfigurationError(f"{where}: unknown fields {unknown}, missing fields {missing}")
    for key, _, (kind, accepts), _ in fields:
        if key in values and not accepts(values[key]):
            raise ConfigurationError(f"{where}.{key} must be {kind}, got {values[key]!r}")
    return values


def from_dict(data, master_seed: int | None = None) -> RunConfig:
    """Parse and validate a run configuration or a sidecar's `config`;
    master_seed, if given, replaces campaign.master_seed before validation."""
    if type(data) is not dict:
        raise ConfigurationError("config must be an object")
    _checked("config", data, [(section, None, OBJECT, False) for section in SCHEMA])
    parts = {}
    for section, (attr, cls, fields) in SCHEMA.items():
        values = _checked(f"config.{section}", data.get(section, {}), fields)
        parts[attr] = cls(**{name or key: values[key]
                             for key, name, *_ in fields if key in values})
    cfg = RunConfig(**parts)
    if master_seed is not None:
        cfg = replace(cfg, campaign=replace(cfg.campaign, master_seed=master_seed))
    cfg.campaign.validate(cfg.ro_params)
    if cfg.flags.emit_sweep and len(cfg.campaign.voltages) < 2:
        raise ConfigurationError("flags.emit_sweep: a sweep needs at least two voltages")
    if cfg.flags.post_bch and cfg.flags.emit_histograms:
        from .bch import N  # imported on use: sampling and sweeps never decode
        if cfg.campaign.id_length < N:
            raise ConfigurationError(f"flags.post_bch needs id_length >= {N} "
                                     f"(the BCH code length), got {cfg.campaign.id_length}")
    return cfg


def to_dict(cfg: RunConfig, sections: tuple[str, ...] = tuple(SCHEMA)) -> dict:
    """The given sections of cfg, in SCHEMA order with every field, for json.dumps."""
    return {section: {key: getattr(getattr(cfg, attr), name or key) for key, name, *_ in fields}
            for section, (attr, _, fields) in SCHEMA.items() if section in sections}


def load(path: str | Path, master_seed: int | None = None) -> RunConfig:
    """Read a run configuration file; see from_dict."""
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, ValueError, RecursionError) as exc:  # unreadable, bad UTF-8 or JSON
        raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
    return from_dict(data, master_seed)
