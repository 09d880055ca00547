"""Timing-level ring oscillator model.

A ring oscillator is reduced to the quantities that matter for bit
extraction: its realized period under process variation, a first-order
linear voltage dependence, white per-half-period jitter, and an optional
pulling interaction with a neighbour oscillator.  Waveforms are ideal
50% duty-cycle square waves that start low and toggle at half-period
boundaries, the first rising edge landing one half-period after enable.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import ConfigurationError, ModelRangeError

if TYPE_CHECKING:
    import numpy as np

COUPLING_NONE = "none"
COUPLING_INVERTER_LOOP = "inverter_loop"
COUPLING_CAPACITIVE = "capacitive"

# Relative floor applied to jittered half-periods so toggle instants stay
# strictly increasing even under absurd jitter draws.
_HALF_PERIOD_FLOOR = 1e-12

# Default pulling strength for capacitively coupled units: strong enough
# that small-mismatch pairs land their early samples near toggle
# boundaries, which is what degrades their repeatability.
DEFAULT_CAPACITIVE_STRENGTH = 0.95


@dataclass(frozen=True)
class RoParams:
    """Population parameters for a family of ring oscillators.

    nominal_period is in seconds (1e-9 for a ~1 GHz oscillator); the two
    sigma fields are relative spreads; gamma terms are fractional period
    change per volt around reference_voltage.
    """

    nominal_period: float = 1e-9
    process_sigma: float = 0.04
    jitter_sigma: float = 0.0003
    voltage_sensitivity_mean: float = 0.5
    voltage_sensitivity_sigma: float = 0.15
    reference_voltage: float = 1.3

    def validate(self) -> None:
        if not self.nominal_period > 0:
            raise ConfigurationError("nominal_period must be > 0")
        for name in ("process_sigma", "jitter_sigma", "voltage_sensitivity_sigma"):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} must be >= 0")


@dataclass(frozen=True)
class RoInstance:
    """One realized oscillator: static draw of period and sensitivity.

    The period is drawn once per instance and never changes within a
    campaign; jitter is applied per half-period at sampling time.
    """

    period_at_ref: float
    gamma: float
    jitter_sigma: float


@dataclass(frozen=True)
class Coupling:
    """Interaction mode between the two oscillators of a PUF unit."""

    mode: str = COUPLING_NONE
    strength: float | None = None  # kappa, capacitive mode only; None: the mode default

    def __post_init__(self):
        if self.strength is None:
            object.__setattr__(self, "strength", DEFAULT_CAPACITIVE_STRENGTH
                               if self.mode == COUPLING_CAPACITIVE else 0.0)
        if self.mode not in (COUPLING_NONE, COUPLING_INVERTER_LOOP, COUPLING_CAPACITIVE):
            raise ConfigurationError(f"unknown coupling mode: {self.mode!r}")
        if self.mode == COUPLING_CAPACITIVE and not 0.0 <= self.strength <= 1.0:
            raise ConfigurationError("capacitive coupling strength must be in [0, 1]")
        if self.mode != COUPLING_CAPACITIVE and self.strength != 0.0:
            raise ConfigurationError(f"coupling strength applies to capacitive mode only, "
                                     f"got {self.strength!r} for {self.mode!r}")


def realize_ro(params: RoParams, key: tuple[int, ...]) -> RoInstance:
    """Draw one oscillator instance from the process-variation model.

    period = nominal * (1 + N(0, process_sigma)); the measure-zero event
    of a non-positive period is redrawn.  The draws come from the stream
    keyed_rng(*key), so the instance is a function of the integer key.
    """
    from .rng import keyed_rng  # numpy's; `metrics` imports this module without it
    params.validate()
    rng = keyed_rng(*key)
    period = params.nominal_period * (1.0 + params.process_sigma * rng.standard_normal())
    while period <= 0.0:
        period = params.nominal_period * (1.0 + params.process_sigma * rng.standard_normal())
    gamma = params.voltage_sensitivity_mean + params.voltage_sensitivity_sigma * rng.standard_normal()
    return RoInstance(period_at_ref=period, gamma=gamma, jitter_sigma=params.jitter_sigma)


def period_at_voltage(inst: RoInstance, v: float, v0: float) -> float:
    """Realized period at supply voltage v, linearized around v0.

    T(v) = T * (1 - gamma * (v - v0)); with gamma > 0 the oscillator
    speeds up at higher voltage.
    """
    period = inst.period_at_ref * (1.0 - inst.gamma * (v - v0))
    if period <= 0.0:
        raise ModelRangeError(
            f"period non-positive at v={v} (gamma={inst.gamma}); "
            "voltage outside the linearization range")
    return period


def apply_coupling(t1: float, t2: float, coupling: Coupling) -> tuple[float, float, float]:
    """Effective periods and jitter correlation for a coupled RO pair.

    Inverter-loop coupling locks both oscillators to a common waveform
    (mean period, unit jitter correlation).  Capacitive coupling pulls
    the periods together by kappa/2 of their difference and correlates
    the jitter by kappa.  Pulling is antisymmetric, so t1 + t2 is
    preserved.
    """
    if coupling.mode == COUPLING_NONE:
        return t1, t2, 0.0
    if coupling.mode == COUPLING_INVERTER_LOOP:
        mean = 0.5 * (t1 + t2)
        return mean, mean, 1.0
    kappa = coupling.strength
    pull = 0.5 * kappa * (t1 - t2)
    return t1 - pull, t2 + pull, kappa


def jittered_half_periods(period: float, jitter_sigma: float, gaussians: np.ndarray) -> np.ndarray:
    """Half-period sequence h_i = (T/2) * (1 + sigma * g_i), floored positive,
    in one new array: gaussians are never written."""
    half = 0.5 * period
    out = gaussians * jitter_sigma
    out += 1.0
    out *= half
    return out.clip(half * _HALF_PERIOD_FLOOR, None, out=out)

