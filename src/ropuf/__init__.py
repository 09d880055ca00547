"""Behavioral simulator and evaluation toolkit for waveform-sampling
ring-oscillator PUFs."""

from .errors import ConfigurationError, DatasetError, DecodeFailure, ModelRangeError
from .ro import (Coupling, RoInstance, RoParams, apply_coupling, period_at_voltage,
                 realize_ro)
from .sampler import PufUnit, enroll_id, sample_word
from .chipsim import (Campaign, CampaignConfig, CampaignDataset, Chip, build_population,
                      fit_sweep, load_dataset, run_campaign, save_dataset, voltage_sweep)
from .metrics import (HdHistogram, MetricsReport, compute_report, linear_fit, reliability,
                      uniformity, uniqueness)
from .cost import CostParams, conventional_puf_cost, waveform_puf_cost

__version__ = "0.1.0"

__all__ = [
    "Campaign", "CampaignConfig", "CampaignDataset", "Chip", "ConfigurationError",
    "CostParams", "Coupling", "DatasetError", "DecodeFailure", "HdHistogram",
    "MetricsReport", "ModelRangeError", "PufUnit",
    "RoInstance", "RoParams", "apply_coupling", "build_population",
    "compute_report", "conventional_puf_cost",
    "enroll_id", "fit_sweep",
    "linear_fit", "load_dataset", "period_at_voltage", "realize_ro",
    "reliability", "run_campaign", "sample_word", "save_dataset",
    "uniformity", "uniqueness", "voltage_sweep", "waveform_puf_cost",
]
