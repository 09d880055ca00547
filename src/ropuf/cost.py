"""Analytic area and latency comparison between the waveform-sampling
RO-PUF and a conventional counter-based RO-PUF.

Both costs are closed-form transistor counts and system-clock cycle
counts, parameterized so the default comparison (128-bit output) can be
re-explored at other design points.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigurationError


@dataclass(frozen=True)
class CostParams:
    transistors_per_ro: int = 20
    transistors_per_ff: int = 30
    transistors_per_mux4: int = 30
    transistors_per_full_adder: int = 20
    bits_required: int = 128
    bits_per_word: int = 16
    counter_bits: int = 16
    n_ros_conventional: int = 35
    mux4_per_mux: int = 21
    n_mux: int = 2

    def validate(self) -> None:
        # Structural counts must be positive; per-component transistor
        # costs may be zero (e.g. to isolate one contribution).
        for name in ("bits_required", "bits_per_word", "counter_bits",
                     "n_ros_conventional", "mux4_per_mux", "n_mux"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must be >= 1")
        for name in ("transistors_per_ro", "transistors_per_ff",
                     "transistors_per_mux4", "transistors_per_full_adder"):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} must be >= 0")


def waveform_puf_cost(p: CostParams) -> tuple[int, int]:
    """(transistors, clock cycles) for the waveform-sampling design.

    The circuit is built from sets of RO pairs, each pair carrying two
    word-wide FF banks; a pair delivers a word per cycle, so a set covers
    4x bits_per_word of the output.  At the 128-bit default this is 2
    pairs (4 ROs) and 64 FFs, read out in 8 cycles.
    """
    p.validate()
    n_pairs = -(-p.bits_required // (4 * p.bits_per_word))
    n_ros = 2 * n_pairs
    n_ffs = min(p.bits_required, n_ros * p.bits_per_word)
    transistors = n_ros * p.transistors_per_ro + n_ffs * p.transistors_per_ff
    cycles = -(-p.bits_required // p.bits_per_word)
    return transistors, cycles


def conventional_puf_cost(p: CostParams) -> tuple[int, int]:
    """(transistors, clock cycles) for the counter-based design.

    ROs feed two MUX trees and two counters; full adders compare the
    counts.  Each output bit costs a full counter run, so the cycle
    count is counter_bits * bits_required.
    """
    p.validate()
    transistors = (p.n_ros_conventional * p.transistors_per_ro
                   + p.n_mux * p.mux4_per_mux * p.transistors_per_mux4
                   + 2 * p.counter_bits * p.transistors_per_ff
                   + p.counter_bits * p.transistors_per_full_adder)
    cycles = p.counter_bits * p.bits_required
    return transistors, cycles
