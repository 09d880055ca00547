"""Behavioral simulator and evaluation toolkit for waveform-sampling
ring-oscillator PUFs.

`import ropuf` loads no submodule (and so no numpy).  Each public name,
and each submodule, is imported on first access through the module
`__getattr__` of PEP 562.
"""
import importlib

__version__ = "0.1.0"

# Each public name -> the submodule that defines it.
_HOME = {
    "ConfigurationError": "errors", "DatasetError": "errors", "DecodeFailure": "errors",
    "ModelRangeError": "errors",
    "Coupling": "ro", "RoInstance": "ro", "RoParams": "ro", "apply_coupling": "ro",
    "period_at_voltage": "ro", "realize_ro": "ro",
    "PufUnit": "sampler", "enroll_id": "sampler", "sample_word": "sampler",
    "CampaignConfig": "config",
    "Campaign": "chipsim", "Chip": "chipsim", "build_population": "chipsim",
    "fit_sweep": "chipsim", "run_campaign": "chipsim", "voltage_sweep": "chipsim",
    "CampaignDataset": "dataset", "load_dataset": "dataset", "save_dataset": "dataset",
    "HdHistogram": "metrics", "MetricsReport": "metrics", "compute_report": "metrics",
    "linear_fit": "metrics", "reliability": "metrics", "uniformity": "metrics",
    "uniqueness": "metrics",
    "CostParams": "cost", "conventional_puf_cost": "cost", "waveform_puf_cost": "cost",
}
_SUBMODULES = ("errors", "ro", "rng", "sampler", "chipsim", "dataset", "config", "bch",
               "metrics", "cost")

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    if name in _HOME:
        return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME, *_SUBMODULES})
