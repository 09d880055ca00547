"""Bit extraction, chip populations and measurement campaigns.

A PUF unit holds two oscillators.  After enable both start low; bit k of
the response is RO1's level at the k-th rising edge of RO2 (rising edges
sit at the odd half-period boundaries, the first near T2/2).  With no
jitter and no coupling this reduces to the closed form

    bit_k = floor((2k+1) / rho) mod 2,   rho = T1 / T2,

where an exact-integer argument resolves to the parity of that integer
minus one: sampling exactly on a toggle instant reads the pre-toggle
level.  Only the period ratio matters, never the absolute time scale.
Words here are (L,) rows of bits; a campaign packs them with pack_into,
and evaluation reads each packed word as an integer.

A campaign realizes N chips from one parameter family, each as it
reaches it and one unit at a time, enrolls one reference ID per chip at
the reference voltage V0, then collects T fresh-jitter samples per
(chip, voltage) cell.
Every stochastic draw comes from a stream keyed by (master seed,
purpose, chip, unit) through rng.keyed_rng, whose rows have a width
that depends on the word length only, so the full grid and any sub-grid
produce identical bits, and sample t is the same enable cycle at every
voltage (common random numbers).
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterator

import numpy as np

from . import ro
from .config import STREAM_VERSION, CampaignConfig
from .errors import ConfigurationError, DatasetError, ModelRangeError
from .rng import (TAG_ENROLL, TAG_ENROLL_EXTEND, TAG_EXTEND, TAG_REALIZE, TAG_RO1, TAG_RO2,
                  keyed_rng)

if TYPE_CHECKING:
    from .dataset import CampaignDataset

# Enrollment and sample rows are drawn this many at a time, which bounds
# the rows the kernel holds (its memory is linear in their width); rows
# have a fixed width, so the bits do not depend on it.
CHUNK_ROWS = 64


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


def pack_into(packed: np.ndarray, rows: np.ndarray, at: int) -> None:
    """OR (..., L) bit rows into packed bytes (..., n) laid out as a
    dataset's words (zero pad bits first, then bit 0 as the most
    significant bit), with bit 0 of each row at bit `at` of its packed row."""
    start, shift = divmod(at, 8)
    width = -(-(shift + rows.shape[-1]) // 8)  # bytes each row reaches
    # In whole bytes, rows pack as one flat run: far faster than by rows.
    bits = np.zeros(rows.shape[:-1] + (8 * width,), dtype=np.uint8)
    bits[..., shift:shift + rows.shape[-1]] = rows
    packed[..., start:start + width] |= np.packbits(bits).reshape(rows.shape[:-1] + (width,))


@dataclass(frozen=True)
class PufUnit:
    """One RO pair with its coupling mode and output word length."""

    ro1: ro.RoInstance
    ro2: ro.RoInstance
    coupling: ro.Coupling = ro.Coupling()
    word_length: int = 16
    reference_voltage: float = 1.3


def draw_rows(rng: np.random.Generator, n: int, word_length: int
              ) -> tuple[np.ndarray, np.ndarray]:
    """n rows of RO1 and RO2 normals from one stream, each row B1 then n2 wide."""
    b1w, n2 = normal_widths(word_length)
    g = rng.standard_normal((n, b1w + n2))
    return g[:, :b1w], g[:, b1w:]


@np.errstate(over="ignore", invalid="ignore")  # inf and nan times are refused, not warned about
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
        _check_times(np.array([[h1]]), edges[None])  # RO1's first boundary, before edges[-1] / h1
        b1 = h1 * np.arange(1, int(np.ceil(edges[-1] / h1)) + 3)
        return np.tile(_toggle_parity(b1[None], edges[None]), (len(g1), 1))

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
        mixed = rho_j * g1[:, :n2] + np.sqrt(1.0 - rho_j * rho_j) * g2
        b2 = ro.jittered_half_periods(t2e, sigma2, mixed)
        np.add.accumulate(b2, axis=1, out=b2)
    edges = b2[:, ::2]  # rising edges sit at boundaries 0, 2, ..., n2-1
    _check_times(b1, edges)  # before any row extends
    bits = _toggle_parity(b1, edges)
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
        bits[short] = _toggle_parity(np.concatenate(parts, axis=1), edges[short])
    return bits


def _toggle_parity(b1: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """(n, L) parities of how many boundaries of b1 (n, B) lie before each
    edge (n, L), both sorted along a row: edge k's rank in a stable merge
    of the row, less k.  The edges go first, so a boundary equal to an
    edge is not before it (the tie rule)."""
    order = np.concatenate([edges, b1], axis=1).argsort(axis=1, kind="stable")
    rank = np.nonzero(order < edges.shape[1])[1].reshape(edges.shape)
    return ((rank - np.arange(edges.shape[1])) & 1).astype(np.uint8)


def _check_times(b1: np.ndarray, edges: np.ndarray) -> None:
    """Refuse sorted rows of RO1 boundaries b1 and RO2 edges whose first
    time is not positive or whose last is not finite: a half-period rounded
    to zero or a time past the float range, where no row extension ends."""
    first, last = np.minimum(b1[:, 0], edges[:, 0]), np.maximum(b1[:, -1], edges[:, -1])
    if not (first.min() > 0 and last.max() < np.inf):  # a nan fails both
        raise ModelRangeError("RO timing outside the float range: a half-period is 0 "
                              "or a toggle time overflows")


def modal_row(words: np.ndarray) -> np.ndarray:
    """A fresh copy of the row of words (R, L) observed most often, rows
    counted by their bytes.  Modal ties fall back to the bitwise majority
    of all rows; remaining per-bit ties resolve to 0."""
    top = Counter(row.tobytes() for row in words).most_common()[:2]
    if len(top) == 1 or top[0][1] > top[1][1]:
        return np.frombuffer(top[0][0], dtype=words.dtype).copy()
    return (2 * words.sum(axis=0, dtype=np.int64) > len(words)).astype(words.dtype)


# No command calls sample_word or enroll_id: perfbench/traced_cli.py wraps
# both by name.
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


@dataclass
class Campaign:
    """A campaign sampled on demand: iterating it yields, chip by chip, a
    block (ref, cells): the chip's reference, enrolled at the reference
    voltage V0, and per voltage its T samples, as packed bytes (see
    pack_into), so a consumer holds one chip and its block.  A chip is
    sampled one unit at a time (see units): each unit's enrollment block
    is drawn once and evaluated at V0, its sample rows drawn once and
    evaluated at every voltage, and both ORed into the block.  Checks run
    at creation."""

    config: CampaignConfig
    ro_params: ro.RoParams
    coupling: ro.Coupling = ro.Coupling()
    stream_version = STREAM_VERSION

    def __post_init__(self):
        self.config.validate(self.ro_params)

    def units(self, c: int) -> Iterator[PufUnit]:
        """The pairs_per_id RO pairs of chip c, each realized when reached:
        oscillator i (0 for RO1, 1 for RO2) of unit u from the stream keyed
        by (master seed, TAG_REALIZE, c, u, i), the same whenever drawn."""
        cfg, params, seed = self.config, self.ro_params, self.config.master_seed
        for u in range(cfg.pairs_per_id):
            ro1, ro2 = (ro.realize_ro(params, (seed, TAG_REALIZE, c, u, i)) for i in (0, 1))
            yield PufUnit(ro1, ro2, self.coupling, cfg.word_length, params.reference_voltage)

    def __iter__(self):
        cfg = self.config
        seed, voltages, lw = cfg.master_seed, cfg.voltages, cfg.word_length
        b1w, n2 = normal_widths(lw)
        n_volts, n_bytes = len(voltages), -(-cfg.id_length // 8)
        v0 = self.ro_params.reference_voltage
        for c in range(cfg.n_chips):
            # Allocated first, as each unit's block: one too large fails before any draw.
            cells = np.zeros((n_volts, cfg.samples_per_chip, n_bytes), dtype=np.uint8)
            ref = np.zeros(n_bytes, dtype=np.uint8)
            for u, unit in enumerate(self.units(c)):
                at = 8 * n_bytes - cfg.id_length + u * lw  # past the pad bits
                enroll, ro1, ro2 = (keyed_rng(seed, tag, c, u)
                                    for tag in (TAG_ENROLL, TAG_RO1, TAG_RO2))
                block = np.empty((cfg.enroll_repetitions, lw), dtype=np.uint8)
                for rows, words in _chunks(unit, (v0,), len(block),
                                           lambda n: draw_rows(enroll, n, lw),
                                           (seed, TAG_ENROLL_EXTEND, c, u)):
                    block[rows] = words[0]
                pack_into(ref, modal_row(block), at)
                for rows, words in _chunks(unit, voltages, cells.shape[1],
                                           lambda n: (ro1.standard_normal((n, b1w)),
                                                      ro2.standard_normal((n, n2))),
                                           (seed, TAG_EXTEND, c, u)):
                    pack_into(cells[:, rows], words, at)
            yield memoryview(ref), list(map(memoryview, cells.reshape(n_volts, -1)))


def _chunks(unit: PufUnit, voltages, n_rows: int, draw, extend_key: tuple):
    """(rows, words) for n_rows enable cycles of unit, CHUNK_ROWS at a time:
    words (n_voltages, n, L) holds the slice rows at each of voltages, from
    the normals draw(n) gives; row r extends from keyed_rng(*extend_key, r)."""
    for start in range(0, n_rows, CHUNK_ROWS):
        g1, g2 = draw(min(CHUNK_ROWS, n_rows - start))
        yield slice(start, start + len(g1)), np.stack([
            sample_rows(unit, v, g1, g2, lambda i: keyed_rng(*extend_key, start + i))
            for v in voltages])


def run_campaign(config: CampaignConfig, ro_params: ro.RoParams,
                 coupling: ro.Coupling = ro.Coupling()) -> CampaignDataset:
    """The Campaign of config collected: every chip's block, held as it
    arrives (no command calls it)."""
    from .dataset import CampaignDataset
    return CampaignDataset(config, ro_params, coupling,
                           list(Campaign(config, ro_params, coupling)))


def voltage_sweep(campaign: CampaignDataset | Campaign) -> list[tuple[float, float]]:
    """Shift of the mean Hamming distance at each voltage, vs. operation
    at the reference voltage.

    For each voltage V the mean of HD(R_i at V0, R'_{i,t} at V) is taken
    over chips and samples; the series reports that mean minus its value
    at V0, paired with dV = V - V0.  Mismatches are counted chip by chip
    on the packed samples, each cell as one Python int: the XOR of its
    bytes with its reference repeated T times (pad bits are zero in both).
    """
    cfg = campaign.config
    v0 = campaign.ro_params.reference_voltage
    if v0 not in cfg.voltages:
        raise DatasetError(f"reference voltage {v0} not in dataset voltages")
    k0, n_samples = cfg.voltages.index(v0), cfg.samples_per_chip
    mismatches = [0] * len(cfg.voltages)
    for ref, cells in campaign:
        ref = int.from_bytes(bytes(ref) * n_samples, "big")
        for k, cell in enumerate(cells):
            mismatches[k] += (int.from_bytes(cell, "big") ^ ref).bit_count()
    n = cfg.n_chips * n_samples
    return [(v - v0, m / n - mismatches[k0] / n) for v, m in zip(cfg.voltages, mismatches)]


def fit_sweep(series: list[tuple[float, float]]) -> dict:
    """OLS fit of the HD shift against |dV| (drift magnitude is symmetric
    in the sign of the voltage offset)."""
    return linear_fit([(abs(dv), shift) for dv, shift in series])


def linear_fit(points: list[tuple[float, float]]) -> dict:
    """Ordinary least squares y = slope*x + intercept with R^2, in closed
    form from the centred sums Sxx, Sxy and Syy of the points."""
    if len(points) < 2:
        raise ValueError("need at least 2 points")
    xs, ys = [float(x) for x, _ in points], [float(y) for _, y in points]
    if not all(map(math.isfinite, xs + ys)):
        raise ValueError("every coordinate must be finite")
    try:
        mx, my = math.fsum(xs) / len(xs), math.fsum(ys) / len(ys)
        dx, dy = [x - mx for x in xs], [y - my for y in ys]
        sxx, sxy, syy = (math.fsum(a * b for a, b in zip(u, w))
                         for u, w in ((dx, dx), (dx, dy), (dy, dy)))
    except OverflowError:  # a partial sum past the float range
        sxx = syy = math.inf
    if not math.isfinite(sxx + syy):
        raise ValueError("coordinates too large for a float fit")
    if min(xs) == max(xs) or sxx == 0.0:
        raise ValueError("degenerate abscissae: all x equal")
    slope = sxy / sxx
    # slope * Sxy = Sxy^2 / Sxx <= Syy, so neither product overflows.
    r2 = 1.0 if syy == 0.0 else min(1.0, slope * sxy / syy)
    return {"slope": slope, "intercept": my - slope * mx, "r2": r2}


def __getattr__(name: str):
    # Lazy re-exports of the dataset module's load_dataset and save_dataset,
    # which exist for perfbench/traced_cli.py: it wraps them as chipsim
    # attributes, and `ropuf simulate` saves through chipsim.save_dataset.
    # Resolved on first access (PEP 562), so a sweep, which writes no
    # dataset, never compiles that module.
    if name in ("load_dataset", "save_dataset"):
        from . import dataset
        return getattr(dataset, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
