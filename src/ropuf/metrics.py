"""Evaluation mathematics: Hamming-distance statistics and the three
standard PUF percentages (uniqueness, reliability, uniformity), plus the
least-squares fit used for the supply-voltage drift analysis.

References R_i are always the enrolled (modal) IDs, never a designated
first sample.  Every metric in a report is labelled with the voltage and
the error-correction stage it was computed at, since the same formulas
apply before and after decoding.

Words are Python integers, each an ID's hex word's value, so distances
and ones counts are int.bit_count of XORs and of words, and the module
imports no numpy (and bch only when a report is computed).  The metric
functions also take bit rows at the API edge.
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path



def _bit_words(words, length: int) -> list[int]:
    """Words of bits, one (length,) word or a sequence of them, as
    integers whose most significant of length bits is bit 0, as in the
    word's hex form."""
    rows = list(words)
    if rows and not hasattr(rows[0], "__len__"):  # one word
        rows = [rows]
    values = []
    for row in rows:
        if len(row) != length:
            raise ValueError("all words must have the stated length")
        value = 0
        for bit in row:
            value = value << 1 | bool(bit)
        values.append(value)
    return values


def _words(packed, width: int):
    """Each width-byte word of packed bytes as an integer, its hex word's
    value, one at a time."""
    return (int.from_bytes(packed[i:i + width], "big") for i in range(0, len(packed), width))


def _pair_distances(words: list[int]) -> list[int]:
    """Hamming distance of every word pair i < j, in row-major pair order."""
    return [(a ^ b).bit_count() for i, a in enumerate(words) for b in words[i + 1:]]


def _pairwise_sum(values: list[float], lo: int, n: int) -> float:
    """Sum of values[lo:lo + n] in the order numpy sums float64 (pairwise
    summation), so a mean equals np.mean's to the last bit."""
    if n < 8:
        total = 0.0
        for x in values[lo:lo + n]:
            total += x
        return total
    if n <= 128:  # eight running sums over whole groups of 8, then the rest
        end = lo + n - n % 8
        r = values[lo:lo + 8]
        for i in range(lo + 8, end, 8):
            r = [a + b for a, b in zip(r, values[i:i + 8])]
        total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for x in values[end:lo + n]:
            total += x
        return total
    half = n // 2
    half -= half % 8
    return _pairwise_sum(values, lo, half) + _pairwise_sum(values, lo + half, n - half)


def _mean(values: list[float]) -> float:
    """np.mean of values, to the last bit."""
    return _pairwise_sum(values, 0, len(values)) / len(values)


def uniqueness(references, length: int) -> float:
    """Mean pairwise fractional Hamming distance over all chip pairs, in %.

    2/(N(N-1)) * sum_{i<j} HD(R_i, R_j)/L * 100.  references is an
    (N, L) bit array.
    """
    return _uniqueness_pct(_bit_words(references, length), length)


def _uniqueness_pct(words: list[int], length: int) -> float:
    """Uniqueness in % of the references as words."""
    n = len(words)
    if n < 2:
        raise ValueError("uniqueness needs at least 2 references")
    total = 0.0
    for hd in _pair_distances(words):
        total += hd / length
    return 2.0 / (n * (n - 1)) * total * 100.0


def reliability(reference, samples, length: int, t: int | None = None) -> float:
    """[1 - mean fractional HD from the reference] * 100, over t samples.

    reference is an (L,) bit array and samples a (T, L) one.
    """
    words = _bit_words(samples, length)
    if t is None:
        t = len(words)
    if t < 1 or len(words) < t:
        raise ValueError("need at least one sample (t <= len(samples))")
    ref = _bit_words(reference, length)[0]
    return _reliability_pct([(w ^ ref).bit_count() for w in words[:t]], length)


def _reliability_pct(distances: list[int], length: int) -> float:
    """Reliability in % from each sample's Hamming distance to the reference."""
    total = sum(d / length for d in distances)
    return (1.0 - total / len(distances)) * 100.0


def uniformity(responses, length: int) -> float:
    """Mean ones-fraction per response, averaged over responses, in %.

    responses is an (n, L) bit array.
    """
    words = _bit_words(responses, length)
    if not words:
        raise ValueError("need at least one response")
    return _uniformity_pct([w.bit_count() for w in words], length)


def _uniformity_pct(ones: list[int], length: int) -> float:
    """Uniformity in % from each response's count of ones."""
    fractions = [k / length for k in range(length + 1)]
    return _mean([fractions[k] for k in ones]) * 100.0


@dataclass
class HdHistogram:
    """Counts of Hamming distances 0..length for one population."""

    population: str  # "intra" | "inter"
    length: int
    counts: list[int] = field(repr=False)

    @classmethod
    def from_distances(cls, population: str, length: int, distances) -> "HdHistogram":
        counts = [0] * (length + 1)
        for d in distances:
            if not 0 <= d <= length:
                raise ValueError(f"distance {d} is not in 0..{length}")
            counts[d] += 1
        return cls(population=population, length=length, counts=counts)

    @property
    def total(self) -> int:
        return sum(self.counts)

    def mass_at(self, distance: int) -> float:
        """Fraction of the population at exactly this distance."""
        return self.counts[distance] / self.total if self.total else 0.0

    def mean(self) -> float:
        return sum(d * c for d, c in enumerate(self.counts)) / self.total if self.total else 0.0

    def to_rows(self) -> list[dict]:
        return [{"population": self.population, "distance": d, "count": c}
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
        return _mean(list(self.reliability_pct_per_chip.values()))

    @property
    def uniformity_pct_mean(self) -> float:
        return _mean(list(self.uniformity_pct_per_chip.values()))

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
            "intra_hist": self.intra.counts,
            "inter_hist": self.inter.counts,
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


def corrected_sample_words(samples, anchor, length: int) -> list[int]:
    """Protected bits of each of one chip's samples, packed length-bit
    words, as bch words (bit 0 of the ID is x^30), after error correction
    toward anchor, the chip's reference enrolled at the reference voltage,
    as packed bytes.

    Only the first 31 bits of an ID are covered by the code (a 32-bit ID
    carries its last bit unprotected).  The reference serves as the code
    offset: decoding sees only the syndrome of sample XOR reference, so
    the result equals that of a fuzzy extractor enrolled with any key.
    Uncorrectable samples are passed through unchanged; correctable ones
    land exactly on the reference.
    """
    from . import bch  # imported on use: sampling and sweeps never decode
    if length < bch.N:
        raise ValueError(f"ID shorter than the {bch.N}-bit code")
    shift = length - bch.N
    anchor = int.from_bytes(anchor, "big") >> shift
    fixed = bch.decode_words((w >> shift) ^ anchor for w in _words(samples, -(-length // 8)))[0]
    for i, w in enumerate(fixed):  # in place: one chip's words are held once
        fixed[i] = w ^ anchor
    return fixed


def _chip_stage(samples, ref: int, anchor, length: int,
                post_bch: bool) -> tuple[list[int], list[int]]:
    """Ones count of each of one chip's packed samples at one voltage, raw
    or after error correction toward anchor, and its Hamming distance from
    ref, that voltage's reference as a word of the same stage.  Only the
    counts outlive the call, not the chip's words."""
    if post_bch:
        words = corrected_sample_words(samples, anchor, length)
    else:
        words = list(_words(samples, -(-length // 8)))
    return [w.bit_count() for w in words], [(w ^ ref).bit_count() for w in words]


def compute_report(campaign, voltage: float | None = None,
                   post_bch: bool = False) -> MetricsReport:
    """Full metrics report for one campaign at one voltage, from the chip
    blocks that iterating a chipsim.Campaign or a dataset.CampaignDataset
    yields.

    Reliability and uniformity use the samples at the requested voltage
    against that voltage's own enrolled reference; intra/inter histograms
    are always computed at the reference voltage.  One pass takes the
    chips one at a time and reads each packed sample as one integer, so
    only one chip's words and counts are held, plus every chip's
    references at the two voltages; each sample is corrected at most once.
    """
    from . import bch  # for the code length; see corrected_sample_words
    cfg = campaign.config
    v0 = campaign.ro_params.reference_voltage
    v = v0 if voltage is None else voltage
    if v not in cfg.voltages:
        raise ValueError(f"voltage {v} not in dataset")
    k, k0 = cfg.voltages.index(v), cfg.voltages.index(v0)
    length = bch.N if post_bch else cfg.id_length
    shift = cfg.id_length - length  # post-BCH words are the top 31 bits of an ID
    intra = [0] * (length + 1)
    reliability_pct, uniformity_pct, refs, anchors = {}, {}, [], []
    for c, (chip_refs, cells) in enumerate(campaign):
        ref, anchor = (int.from_bytes(chip_refs[i], "big") >> shift for i in (k, k0))
        ones, hd = _chip_stage(cells[k], ref, chip_refs[k0], cfg.id_length, post_bch)
        reliability_pct[c] = _reliability_pct(hd, length)
        uniformity_pct[c] = _uniformity_pct(ones, length)
        if k != k0:
            hd = _chip_stage(cells[k0], anchor, chip_refs[k0], cfg.id_length, post_bch)[1]
        for d in hd:
            intra[d] += 1
        del ones, hd  # freed before the next chip's words are read
        refs.append(ref)
        anchors.append(anchor)
    return MetricsReport(
        voltage=v,
        bch_stage="post_bch" if post_bch else "raw",
        id_length=length,
        uniqueness_pct=_uniqueness_pct(refs, length),
        reliability_pct_per_chip=reliability_pct,
        uniformity_pct_per_chip=uniformity_pct,
        intra=HdHistogram("intra", length, intra),
        inter=HdHistogram.from_distances("inter", length, _pair_distances(anchors)),
    )
