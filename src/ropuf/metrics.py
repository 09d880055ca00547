"""Evaluation mathematics: Hamming-distance statistics and the three
standard PUF percentages (uniqueness, reliability, uniformity), plus the
least-squares fit used for the supply-voltage drift analysis.

References R_i are always the enrolled (modal) IDs, never a designated
first sample.  Every metric in a report is labelled with the voltage and
the error-correction stage it was computed at, since the same formulas
apply before and after decoding.
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import bch
from .sampler import pack_rows


def _bit_rows(words, length: int) -> np.ndarray:
    """Words, one (length,) word or one word per row, as an (n, length)
    bit array."""
    rows = np.atleast_2d(words)
    if rows.ndim != 2 or rows.shape[1] != length:
        raise ValueError("all words must have the stated length")
    return rows


def _pair_distances(rows: np.ndarray) -> np.ndarray:
    """Hamming distance of every row pair i < j, in row-major pair order."""
    i, j = np.triu_indices(rows.shape[0], 1)
    return np.count_nonzero(rows[i] != rows[j], axis=1)


def uniqueness(references, length: int) -> float:
    """Mean pairwise fractional Hamming distance over all chip pairs, in %.

    2/(N(N-1)) * sum_{i<j} HD(R_i, R_j)/L * 100.  references is an
    (N, L) bit array.
    """
    rows = _bit_rows(references, length)
    n = rows.shape[0]
    if n < 2:
        raise ValueError("uniqueness needs at least 2 references")
    total = 0.0
    for hd in _pair_distances(rows).tolist():
        total += hd / length
    return 2.0 / (n * (n - 1)) * total * 100.0


def reliability(reference, samples, length: int, t: int | None = None) -> float:
    """[1 - mean fractional HD from the reference] * 100, over t samples.

    reference is an (L,) bit array and samples a (T, L) one.
    """
    rows = _bit_rows(samples, length)
    if t is None:
        t = rows.shape[0]
    if t < 1 or rows.shape[0] < t:
        raise ValueError("need at least one sample (t <= len(samples))")
    distances = np.count_nonzero(rows[:t] != _bit_rows(reference, length)[0], axis=1)
    return _reliability_pct(distances, length)


def _reliability_pct(distances: np.ndarray, length: int) -> float:
    """Reliability in % from each sample's Hamming distance to the reference."""
    total = sum(d / length for d in distances.tolist())
    return (1.0 - total / distances.shape[0]) * 100.0


def uniformity(responses, length: int) -> float:
    """Mean ones-fraction per response, averaged over responses, in %.

    responses is an (n, L) bit array.
    """
    rows = _bit_rows(responses, length)
    if rows.shape[0] == 0:
        raise ValueError("need at least one response")
    return _uniformity_pct(rows.sum(axis=1), length)


def _uniformity_pct(ones: np.ndarray, length: int) -> float:
    """Uniformity in % from each response's count of ones."""
    return float(np.mean(ones / length) * 100.0)


@dataclass
class HdHistogram:
    """Counts of Hamming distances 0..length for one population."""

    population: str  # "intra" | "inter"
    length: int
    counts: np.ndarray = field(repr=False)

    @classmethod
    def from_distances(cls, population: str, length: int, distances) -> "HdHistogram":
        counts = np.bincount(np.asarray(distances, dtype=np.int64), minlength=length + 1)
        if counts.shape[0] > length + 1:
            raise ValueError("distance exceeds word length")
        return cls(population=population, length=length, counts=counts)

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def mass_at(self, distance: int) -> float:
        """Fraction of the population at exactly this distance."""
        return float(self.counts[distance] / self.total) if self.total else 0.0

    def mean(self) -> float:
        d = np.arange(self.counts.shape[0])
        return float((d * self.counts).sum() / self.total) if self.total else 0.0

    def to_rows(self) -> list[dict]:
        return [{"population": self.population, "distance": int(d), "count": int(c)}
                for d, c in enumerate(self.counts)]


def write_histogram_csv(path: str | Path, histograms: list[HdHistogram]) -> None:
    """One row per distance, per population."""
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=["population", "distance", "count"])
        writer.writeheader()
        for h in histograms:
            writer.writerows(h.to_rows())


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


@dataclass
class MetricsReport:
    """Aggregated evaluation results for one campaign at one voltage."""

    voltage: float
    bch_stage: str  # "raw" | "post_bch"
    id_length: int
    uniqueness_pct: float
    reliability_pct_per_chip: dict[int, float]
    uniformity_pct_per_chip: dict[int, float]
    intra: HdHistogram
    inter: HdHistogram

    @property
    def reliability_pct_mean(self) -> float:
        return float(np.mean(list(self.reliability_pct_per_chip.values())))

    @property
    def uniformity_pct_mean(self) -> float:
        return float(np.mean(list(self.uniformity_pct_per_chip.values())))

    def to_json_dict(self) -> dict:
        return {
            "voltage": self.voltage,
            "bch_stage": self.bch_stage,
            "id_length": self.id_length,
            "uniqueness_pct": self.uniqueness_pct,
            "reliability_pct_mean": self.reliability_pct_mean,
            "reliability_pct_per_chip": {str(k): v for k, v in
                                         self.reliability_pct_per_chip.items()},
            "uniformity_pct_mean": self.uniformity_pct_mean,
            "uniformity_pct_per_chip": {str(k): v for k, v in
                                        self.uniformity_pct_per_chip.items()},
            "intra_hist": [int(c) for c in self.intra.counts],
            "inter_hist": [int(c) for c in self.inter.counts],
            "voltage_fit": None,  # kept so reports keep their keys
        }

    def save_json(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_json_dict(), indent=2) + "\n")

    def summary_lines(self) -> list[str]:
        """Three-row layout, percentages at two decimals."""
        return [
            f"Uniformity   {self.uniformity_pct_mean:6.2f}",
            f"Reliability  {self.reliability_pct_mean:6.2f}",
            f"Uniqueness   {self.uniqueness_pct:6.2f}",
        ]


# --- campaign-level evaluation ------------------------------------------


def corrected_sample_words(samples: np.ndarray, anchor: np.ndarray, length: int) -> np.ndarray:
    """(T,) protected bits of one chip's (T, ceil(length/8)) packed
    samples, as bch.packed_words integers, after error correction toward
    anchor, the chip's reference enrolled at the reference voltage, as
    pack_rows bytes.

    Only the first 31 bits of an ID are covered by the code (a 32-bit ID
    carries its last bit unprotected).  The reference serves as the code
    offset: decoding sees only the syndrome of sample XOR reference, so
    the result equals that of a fuzzy extractor enrolled with any key.
    Uncorrectable samples are passed through unchanged; correctable ones
    land exactly on the reference.
    """
    if length < bch.N:
        raise ValueError(f"ID shorter than the {bch.N}-bit code")
    anchor = bch.packed_words(anchor, length)
    fixed = bch.decode_words(bch.packed_words(samples, length) ^ anchor)[0]
    return np.bitwise_xor(fixed, anchor, out=fixed)


def _chip_stage(samples: np.ndarray, ref: np.ndarray, anchor: np.ndarray, length: int,
                post_bch: bool) -> tuple[np.ndarray, np.ndarray]:
    """Ones count of each of one chip's packed samples at one voltage, raw
    or after error correction toward anchor, and its Hamming distance from
    ref, that voltage's reference, both (T,), counted on the packed bytes."""
    if post_bch:
        samples = corrected_sample_words(samples, anchor, length)[:, None]
        ref = bch.packed_words(ref, length)
    return (np.bitwise_count(samples).sum(axis=1, dtype=np.intp),
            np.bitwise_count(samples ^ ref).sum(axis=1, dtype=np.intp))


def compute_report(campaign, voltage: float | None = None,
                   post_bch: bool = False) -> MetricsReport:
    """Full metrics report for one campaign at one voltage, from the chip
    blocks that iterating a chipsim Campaign or CampaignDataset yields.

    Reliability and uniformity use the samples at the requested voltage
    against that voltage's own enrolled reference; intra/inter histograms
    are always computed at the reference voltage.  One pass takes the
    chips one at a time and scores their samples packed, eight bits to a
    byte, so only one chip's counts and corrected words are held, plus
    every chip's references at the two voltages; each sample is corrected
    at most once.
    """
    cfg = campaign.config
    v0 = campaign.ro_params.reference_voltage
    v = v0 if voltage is None else voltage
    if v not in cfg.voltages:
        raise ValueError(f"voltage {v} not in dataset")
    k, k0 = cfg.voltages.index(v), cfg.voltages.index(v0)
    length = bch.N if post_bch else cfg.id_length
    counts = np.zeros(length + 1, dtype=np.int64)
    reliability_pct, uniformity_pct, ref_pairs = {}, {}, []  # each chip's refs at v, v0
    for c, (refs, cells) in enumerate(campaign):
        ref, anchor = pack_rows(refs[k]), pack_rows(refs[k0])
        ones, hd = _chip_stage(cells[k], ref, anchor, cfg.id_length, post_bch)
        reliability_pct[c] = _reliability_pct(hd, length)
        uniformity_pct[c] = _uniformity_pct(ones, length)
        if k != k0:
            hd = _chip_stage(cells[k0], anchor, anchor, cfg.id_length, post_bch)[1]
        counts += np.bincount(hd, minlength=length + 1)
        ref_pairs.append(refs[[k, k0], :length])
    ref_pairs = np.array(ref_pairs)
    return MetricsReport(
        voltage=v,
        bch_stage="post_bch" if post_bch else "raw",
        id_length=length,
        uniqueness_pct=uniqueness(ref_pairs[:, 0], length),
        reliability_pct_per_chip=reliability_pct,
        uniformity_pct_per_chip=uniformity_pct,
        intra=HdHistogram("intra", length, counts),
        inter=HdHistogram.from_distances("inter", length, _pair_distances(ref_pairs[:, 1])),
    )
