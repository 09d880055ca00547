"""Bit extraction: sample one oscillator's waveform at another's rising edges.

A PUF unit holds two oscillators.  After enable both start low; bit k of
the response is RO1's level at the k-th rising edge of RO2 (rising edges
sit at the odd half-period boundaries, the first near T2/2).  With no
jitter and no coupling this reduces to the closed form

    bit_k = floor((2k+1) / rho) mod 2,   rho = T1 / T2,

where an exact-integer argument resolves to the parity of that integer
minus one: sampling exactly on a toggle instant reads the pre-toggle
level.  Only the period ratio matters, never the absolute time scale.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from . import ro
from .errors import ConfigurationError
from .rng import ensure_rng


def rows_to_hex(rows: np.ndarray) -> list[str]:
    """Hex word of each row of an (n, L) bit array: bit 0 most
    significant, exactly ceil(L/4) lower-case digits."""
    pad = -rows.shape[1] % 8  # zero bits above bit 0, up to whole bytes
    text = np.packbits(np.pad(rows, ((0, 0), (pad, 0))), axis=1).tobytes().hex()
    step = (rows.shape[1] + pad) // 4  # digits per padded word
    return [text[i + pad // 4:i + step] for i in range(0, len(text), step)]


def hex_to_rows(words: list[str], length: int) -> np.ndarray:
    """(n, length) bit array of hex words of exactly ceil(length/4) digits
    each (either case), the inverse of rows_to_hex.  The padding bits
    above bit 0 must be zero."""
    digits, pad = -(-length // 4), -length % 8
    if any(len(w) != digits for w in words):
        raise ValueError(f"hex words of a {length}-bit ID must have {digits} digits")
    raw = bytes.fromhex("0".join(["", *words]) if digits % 2 else "".join(words))
    if len(raw) * 8 != len(words) * (length + pad):  # fromhex skips whitespace
        raise ValueError("hex words must hold hex digits only")
    packed = np.frombuffer(raw, dtype=np.uint8).reshape(len(words), (length + pad) // 8)
    bits = np.unpackbits(packed, axis=1)
    if bits[:, :pad].any():
        raise ValueError(f"hex word does not fit in {length} bits")
    return bits[:, pad:]


@dataclass(frozen=True)
class ResponseWord:
    """Fixed-length bit vector in sample order (bit 0 first)."""

    bits: np.ndarray = field(repr=False)

    def __post_init__(self):
        arr = np.ascontiguousarray(np.asarray(self.bits, dtype=np.uint8) & 1)
        arr.flags.writeable = False
        object.__setattr__(self, "bits", arr)

    def __len__(self) -> int:
        return self.bits.shape[0]

    def __eq__(self, other) -> bool:
        if not isinstance(other, ResponseWord):
            return NotImplemented
        return len(self) == len(other) and bool(np.array_equal(self.bits, other.bits))

    def __hash__(self) -> int:
        return hash((len(self), self.bits.tobytes()))

    def __xor__(self, other: "ResponseWord") -> "ResponseWord":
        if len(self) != len(other):
            raise ValueError("length mismatch")
        return ResponseWord(self.bits ^ other.bits)

    def __repr__(self) -> str:
        return f"ResponseWord({''.join(str(b) for b in self.bits)})"

    def to_int(self) -> int:
        """Big-endian integer value: bit 0 is the most significant bit."""
        return int(self.to_hex(), 16)

    def to_hex(self) -> str:
        return rows_to_hex(self.bits[None, :])[0]

    @classmethod
    def from_hex(cls, text: str, length: int) -> "ResponseWord":
        return cls(hex_to_rows([text], length)[0])

    @classmethod
    def zeros(cls, length: int) -> "ResponseWord":
        return cls(np.zeros(length, dtype=np.uint8))


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


def _rising_edge_index(word_length: int) -> np.ndarray:
    # boundary index (0-based) of each rising edge: 0, 2, 4, ...
    return 2 * np.arange(word_length)


def sample_word(unit: PufUnit, v: float, seed) -> ResponseWord:
    """Sample one response word at supply voltage v.

    Fresh jitter is drawn from seed for both oscillators; capacitive
    coupling correlates the draws pairwise by kappa, and an inverter
    loop collapses both oscillators onto a single shared waveform (full
    injection lock), which the downstream tie rule turns into the
    all-zero word.
    """
    rng = ensure_rng(seed)
    v0 = unit.reference_voltage
    t1 = ro.period_at_voltage(unit.ro1, v, v0)
    t2 = ro.period_at_voltage(unit.ro2, v, v0)
    t1e, t2e, rho_j = ro.apply_coupling(t1, t2, unit.coupling)
    h1 = 0.5 * t1e
    h2 = 0.5 * t2e
    lw = unit.word_length
    n2 = 2 * lw - 1  # boundaries needed to reach rising edge lw-1
    sigma1 = unit.ro1.jitter_sigma
    sigma2 = unit.ro2.jitter_sigma

    if sigma1 == 0.0 and sigma2 == 0.0:
        # Noiseless boundaries are exact multiples; build them by
        # multiplication so the word depends only on the period ratio.
        edges = h2 * (2.0 * np.arange(lw) + 1.0)
        n1 = int(np.ceil(edges[-1] / h1)) + 2
        b1 = h1 * np.arange(1, n1 + 1)
        counts = np.searchsorted(b1, edges, side="left")
        return ResponseWord((counts & 1).astype(np.uint8))

    locked = unit.coupling.mode == ro.COUPLING_INVERTER_LOOP
    n1 = max(int(np.ceil(n2 * h2 / h1 * (1.0 + 6.0 * sigma2))) + 8, n2)
    g1 = rng.standard_normal(n1)
    half1 = ro.jittered_half_periods(t1e, sigma1, g1)
    if locked:
        half2 = half1[:n2]
    else:
        w = rng.standard_normal(n2)
        g2 = rho_j * g1[:n2] + np.sqrt(1.0 - rho_j * rho_j) * w
        half2 = ro.jittered_half_periods(t2e, sigma2, g2)
    b2 = np.cumsum(half2)
    b1 = np.cumsum(half1)
    t_last = b2[-1]
    while b1[-1] <= t_last:  # jitter pushed RO1 short of coverage; extend
        extra = ro.jittered_half_periods(t1e, sigma1, rng.standard_normal(16))
        b1 = np.concatenate([b1, b1[-1] + np.cumsum(extra)])
    edges = b2[_rising_edge_index(lw)]
    counts = np.searchsorted(b1, edges, side="left")
    return ResponseWord((counts & 1).astype(np.uint8))


def enroll_id(unit: PufUnit, repetitions: int, v: float, seed) -> ResponseWord:
    """Enrolled ID: the whole word observed most often over fresh samples.

    Each repetition is a fresh enable cycle with new jitter.  Modal ties
    fall back to bitwise majority across all repetitions; remaining
    per-bit ties resolve to 0.
    """
    if repetitions < 1:
        raise ConfigurationError("repetitions must be >= 1")
    rng = ensure_rng(seed)
    words = [sample_word(unit, v, rng) for _ in range(repetitions)]
    counts = Counter(words)
    ranked = counts.most_common()
    top = ranked[0][1]
    leaders = [w for w, c in ranked if c == top]
    if len(leaders) == 1:
        return leaders[0]
    ones = np.sum([w.bits for w in words], axis=0)
    return ResponseWord((2 * ones > len(words)).astype(np.uint8))


def compose_id(words: list[ResponseWord]) -> ResponseWord:
    """Concatenate unit words, in unit order, into one ID."""
    if not words:
        raise ValueError("at least one word required")
    return ResponseWord(np.concatenate([w.bits for w in words]))
