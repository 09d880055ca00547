"""Bit extraction: sample one oscillator's waveform at another's rising edges.

A PUF unit holds two oscillators.  After enable both start low; bit k of
the response is RO1's level at the k-th rising edge of RO2 (rising edges
sit at the odd half-period boundaries, the first near T2/2).  With no
jitter and no coupling this reduces to the closed form

    bit_k = floor((2k+1) / rho) mod 2,   rho = T1 / T2,

where an exact-integer argument resolves to the parity of that integer
minus one: sampling exactly on a toggle instant reads the pre-toggle
level.  Only the period ratio matters, never the absolute time scale.

Words here are (L,) rows of bits; a campaign packs them with pack_rows,
and evaluation reads each packed word as an integer.  Every draw comes
from a stream given by an integer key (see rng).
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import ro
from .errors import ConfigurationError
from .rng import keyed_rng


def pack_rows(rows: np.ndarray) -> np.ndarray:
    """(..., ceil(L/8)) bytes of (..., L) bit rows, laid out as their hex
    words: zero pad bits first, then bit 0 as the most significant bit."""
    pad = -rows.shape[-1] % 8
    if pad:  # np.pad copies the rows, so only a partial byte pays for it
        rows = np.pad(rows, [(0, 0)] * (rows.ndim - 1) + [(pad, 0)])
    return np.packbits(rows, axis=-1)


def unpack_rows(packed: np.ndarray, length: int) -> np.ndarray:
    """(..., length) bit rows of pack_rows bytes, the pad bits dropped."""
    return np.unpackbits(packed, axis=-1)[..., packed.shape[-1] * 8 - length:]


@dataclass(frozen=True)
class PufUnit:
    """One RO pair with its coupling mode and output word length."""

    ro1: ro.RoInstance
    ro2: ro.RoInstance
    coupling: ro.Coupling = ro.Coupling.none()
    word_length: int = 16
    reference_voltage: float = 1.3

    def __post_init__(self):
        if self.word_length < 1:
            raise ConfigurationError("word_length must be >= 1")


def normal_widths(word_length: int) -> tuple[int, int]:
    """(B1, n2): standard normals per row for RO1 and RO2.

    RO2 needs n2 = 2L-1 half-periods to reach rising edge L-1.  RO1 gets
    B1 = (3*n2+1)//2 + 8 (55 for L = 16), enough to cover them while T2/T1
    stays below about 1.5; a row that runs short extends from its own
    stream (see sample_rows).  Both depend on L only, so a row is the same
    enable cycle at every voltage (common random numbers across a sweep).
    """
    n2 = 2 * word_length - 1
    return (3 * n2 + 1) // 2 + 8, n2


def draw_rows(rng: np.random.Generator, n: int, word_length: int
              ) -> tuple[np.ndarray, np.ndarray]:
    """n rows of RO1 and RO2 normals from one stream, each row B1 then n2 wide."""
    b1w, n2 = normal_widths(word_length)
    g = rng.standard_normal((n, b1w + n2))
    return g[:, :b1w], g[:, b1w:]


def sample_rows(unit: PufUnit, v: float, g1: np.ndarray, g2: np.ndarray,
                extension: Callable[[int], np.random.Generator]) -> np.ndarray:
    """(n, L) words of n enable cycles at supply voltage v.

    Row i of g1 (n, B1) and g2 (n, n2) holds the standard normals of
    cycle i (see normal_widths).  Capacitive coupling correlates RO2's
    jitter with RO1's by kappa; an inverter loop collapses both
    oscillators onto RO1's waveform (full injection lock), which the tie
    rule turns into the all-zero word.  A row whose RO1 boundaries end
    before RO2's last rising edge extends them with normals from
    extension(i), never from another row.
    """
    v0 = unit.reference_voltage
    t1 = ro.period_at_voltage(unit.ro1, v, v0)
    t2 = ro.period_at_voltage(unit.ro2, v, v0)
    t1e, t2e, rho_j = ro.apply_coupling(t1, t2, unit.coupling)
    lw = unit.word_length
    n2 = 2 * lw - 1
    sigma1 = unit.ro1.jitter_sigma
    sigma2 = unit.ro2.jitter_sigma

    if sigma1 == 0.0 and sigma2 == 0.0:
        # Noiseless boundaries are exact multiples; build them by
        # multiplication so the word depends only on the period ratio.
        h1, h2 = 0.5 * t1e, 0.5 * t2e
        edges = h2 * (2.0 * np.arange(lw) + 1.0)
        b1 = h1 * np.arange(1, int(np.ceil(edges[-1] / h1)) + 3)
        word = (np.count_nonzero(b1 < edges[:, None], axis=1) & 1).astype(np.uint8)
        return np.tile(word, (len(g1), 1))

    # Each running sum is taken in place in the one array
    # jittered_half_periods returns, so g1 and g2 are only read: a chunk's
    # normals serve every voltage.  np.add.accumulate gives np.cumsum's
    # sums, but np.cumsum(..., out=) leaves small allocations behind, a
    # number that varies with the hash seed, which grow a campaign's
    # traced peak chip by chip.
    b1 = ro.jittered_half_periods(t1e, sigma1, g1)
    np.add.accumulate(b1, axis=1, out=b1)
    if unit.coupling.mode == ro.COUPLING_INVERTER_LOOP:
        b2 = b1[:, :n2]
    else:
        # Without coupling the mix is g2 itself, bit for bit.
        mixed = g2 if rho_j == 0.0 else rho_j * g1[:, :n2] + np.sqrt(1.0 - rho_j * rho_j) * g2
        b2 = ro.jittered_half_periods(t2e, sigma2, mixed)
        np.add.accumulate(b2, axis=1, out=b2)
    edges = b2[:, ::2]  # rising edges sit at boundaries 0, 2, ..., n2-1
    # Toggles of RO1 before each edge.  Columns at or past every row's
    # last edge count for no edge, so they are left out.
    width = int(np.count_nonzero(b1 < edges[:, -1:], axis=1).max(initial=0))
    counts = np.count_nonzero(b1[:, None, :width] < edges[:, :, None], axis=2)
    short = np.flatnonzero(b1[:, -1] <= edges[:, -1])  # rows short of coverage
    if short.size:
        # All short rows extend together, 16 normals a round, each from its
        # own stream; a row already covered gains only boundaries past its
        # last edge, which count for no edge.
        streams, last_edge = [extension(int(i)) for i in short], edges[short, -1:]
        parts = [b1[short]]
        while (parts[-1][:, -1:] <= last_edge).any():
            extra = ro.jittered_half_periods(
                t1e, sigma1, np.array([rng.standard_normal(16) for rng in streams]))
            parts.append(parts[-1][:, -1:] + np.add.accumulate(extra, axis=1, out=extra))
        rows = np.concatenate(parts, axis=1)
        counts[short] = np.count_nonzero(rows[:, None, :] < edges[short, :, None], axis=2)
    return (counts & 1).astype(np.uint8)


def modal_row(words: np.ndarray) -> np.ndarray:
    """A fresh copy of the row of words (R, L) observed most often, rows
    counted by their bytes.  Modal ties fall back to the bitwise majority
    of all rows; remaining per-bit ties resolve to 0."""
    top = Counter(row.tobytes() for row in words).most_common()[:2]
    if len(top) == 1 or top[0][1] > top[1][1]:
        return np.frombuffer(top[0][0], dtype=words.dtype).copy()
    return (2 * words.sum(axis=0, dtype=np.int64) > len(words)).astype(words.dtype)


def sample_word(unit: PufUnit, v: float, seed: int) -> np.ndarray:
    """One (L,) response word at supply voltage v: one row of sample_rows,
    its normals (and any coverage extension) drawn from keyed_rng(seed)."""
    rng = keyed_rng(seed)
    return sample_rows(unit, v, *draw_rows(rng, 1, unit.word_length), lambda i: rng)[0]


def enroll_id(unit: PufUnit, repetitions: int, v: float, seed: int) -> np.ndarray:
    """Enrolled (L,) ID: the modal word (see modal_row) of a block of fresh
    enable cycles drawn from keyed_rng(seed)."""
    if repetitions < 1:
        raise ConfigurationError("repetitions must be >= 1")
    rng = keyed_rng(seed)
    return modal_row(sample_rows(unit, v, *draw_rows(rng, repetitions, unit.word_length),
                                 lambda i: rng))
