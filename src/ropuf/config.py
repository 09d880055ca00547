"""One schema for run configurations and dataset sidecars.

A run configuration has the sections `ro`, `campaign` and `coupling`,
which `dataset.json` carries under `config`, next to its
`stream_version`, whose current value, `STREAM_VERSION`, is kept here.
`SCHEMA` lists each field of each section once, and `from_dict` and
`to_dict` read and write every section from it, so both files pass the
same checks.
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

    def validate(self, params: ro.RoParams) -> None:
        if self.n_chips < 2:
            raise ConfigurationError("n_chips must be >= 2 for inter-chip metrics")
        if self.pairs_per_id < 1 or self.word_length < 1:
            raise ConfigurationError("pairs_per_id and word_length must be >= 1")
        # So that `metrics` reads every dataset `simulate` writes.  First,
        # with a message of constants only, so that no message below formats
        # an int past str()'s digit limit.
        bits, n_volts = self.pairs_per_id * self.word_length, len(self.voltages)
        if bits > MAX_ID_BITS:
            raise ConfigurationError(f"pairs_per_id x word_length: an ID must fit in a dataset "
                                     f"row's {CSV_FIELD_LIMIT} hex digits, at most "
                                     f"{MAX_ID_BITS} bits")
        # The arrays a campaign allocates must be ones numpy can index: a
        # larger campaign is refused here, before any output, not mid-run.
        for array, fields, elements in (
                ("a unit's enrollment block", "enroll_repetitions x word_length",
                 self.enroll_repetitions * self.word_length),
                ("a chip's samples",
                 "voltages_v x samples_per_chip x ceil(pairs_per_id x word_length / 8)",
                 n_volts * self.samples_per_chip * -(-bits // 8))):
            if elements > sys.maxsize:
                raise ConfigurationError(f"{fields}: {array} would hold more than "
                                         f"sys.maxsize ({sys.maxsize}) elements")
        if self.id_length != bits:
            raise ConfigurationError(f"id_length {self.id_length} != pairs_per_id*word_length {bits}")
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
        params.validate()
        # Reject configurations that could leave the linear voltage
        # model (worst realistic sensitivity draw at the worst voltage).
        gamma_max = abs(params.voltage_sensitivity_mean) + 6.0 * params.voltage_sensitivity_sigma
        dv_max = max(abs(v - params.reference_voltage) for v in self.voltages)
        if gamma_max * dv_max >= 0.5:
            raise ConfigurationError(
                "voltages: |gamma*(V-V0)| may reach 0.5; outside model range")
        if params.reference_voltage not in self.voltages:
            raise ConfigurationError(
                f"voltages_v must include reference_voltage_v "
                f"{params.reference_voltage}: references are enrolled there")


@dataclass(frozen=True)
class RunConfig:
    """Everything one simulation run needs."""

    ro_params: ro.RoParams = field(default_factory=ro.RoParams)
    campaign: CampaignConfig = field(default_factory=CampaignConfig)
    coupling: ro.Coupling = field(default_factory=ro.Coupling)


# Exact JSON types, (name in messages, check): neither True nor 3.0 is an
# int, and a number is one that a float equals (the comparison of an int
# with a float is exact, so a 401-digit int fails it without an overflow).
# A tuple passes as a list, since to_dict leaves `voltages` a tuple.
INT = ("an integer", lambda v: type(v) is int)
NUMBER = ("a number that a finite float equals",
          lambda v: type(v) in (int, float) and abs(v) <= sys.float_info.max and float(v) == v)
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
}

# A run configuration written when `simulate` could also score its dataset
# may still carry that `flags` section, but only asking for nothing:
# reports come from `ropuf metrics` and sweeps from `ropuf sweep`.
NO_FLAG = ("false (simulate writes only the dataset: run `ropuf metrics` or `ropuf sweep`)",
           lambda v: v is False)
OLD_FLAGS = tuple((key, None, NO_FLAG, False)
                  for key in ("post_bch", "emit_histograms", "emit_sweep"))


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
    return cfg


def to_dict(cfg: RunConfig) -> dict:
    """Every section of cfg, in SCHEMA order with every field, for json.dumps."""
    return {section: {key: getattr(getattr(cfg, attr), name or key) for key, name, *_ in fields}
            for section, (attr, _, fields) in SCHEMA.items()}


def load(path: str | Path, master_seed: int | None = None) -> RunConfig:
    """Read a run configuration file; see from_dict."""
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, ValueError, RecursionError) as exc:  # unreadable, bad UTF-8 or JSON
        raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
    if type(data) is dict and "flags" in data:  # see OLD_FLAGS
        flags = data.pop("flags")
        if type(flags) is not dict:
            raise ConfigurationError(f"config.flags must be {OBJECT[0]}, got {flags!r}")
        _checked("config.flags", flags, OLD_FLAGS)
    return from_dict(data, master_seed)
