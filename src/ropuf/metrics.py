"""Evaluation mathematics: Hamming-distance statistics and the three
standard PUF percentages (uniqueness, reliability, uniformity).

References R_i are always the enrolled (modal) IDs, never a designated
first sample.  Every metric in a report is labelled with the voltage and
the error-correction stage it was computed at, since the same formulas
apply before and after decoding.

A word is a Python integer, an ID's hex word's value: bit 0 of the ID is
the most significant of its length bits, as int.from_bytes reads a
dataset's packed word.  Distances and ones counts are int.bit_count of
XORs and of words, so the module imports no numpy (and bch only when a
report is computed), and a report runs the same three metric functions
that callers do.  Each percentage is one division of integer counts,
which Python rounds correctly, so it is exact to the last bit.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

from .errors import DatasetError


def _words(packed, width: int):
    """Each width-byte word of packed bytes as an integer, its hex word's
    value, one at a time."""
    return (int.from_bytes(packed[i:i + width], "big") for i in range(0, len(packed), width))


def _pair_distances(words: list[int]):
    """Hamming distance of every word pair i < j, in row-major pair order."""
    return ((a ^ b).bit_count() for i, a in enumerate(words) for b in words[i + 1:])


def uniqueness(references, length: int) -> float:
    """Mean pairwise fractional Hamming distance over all chip pairs, in %.

    2/(N(N-1)) * sum_{i<j} HD(R_i, R_j)/L * 100, references a sequence
    of N words: 100 * sum HD / (pairs * L), one division of integers.
    """
    n = len(references)
    if n < 2:
        raise ValueError("uniqueness needs at least 2 references")
    return 100 * sum(_pair_distances(references)) / (n * (n - 1) // 2 * length)


def reliability(reference: int, samples, length: int) -> float:
    """[1 - mean fractional HD from the reference] * 100, over a sequence
    of sample words: 100 * (T*L - sum HD) / (T*L)."""
    if not samples:
        raise ValueError("need at least one sample")
    bits = len(samples) * length
    return 100 * (bits - sum((w ^ reference).bit_count() for w in samples)) / bits


def uniformity(responses, length: int) -> float:
    """Mean ones-fraction per response, averaged over a sequence of
    response words, in %: 100 * sum ones / (T*L)."""
    if not responses:
        raise ValueError("need at least one response")
    return 100 * sum(w.bit_count() for w in responses) / (len(responses) * length)


@dataclass
class MetricsReport:
    """Aggregated evaluation results for one campaign at its reference
    voltage; each mean over chips is math.fsum's correctly rounded sum
    over the chip count."""

    voltage: float
    bch_stage: str  # "raw" | "post_bch"
    id_length: int
    uniqueness_pct: float
    reliability_pct_per_chip: dict[int, float]
    uniformity_pct_per_chip: dict[int, float]
    intra: list[int]  # count of each Hamming distance 0..id_length
    inter: list[int]

    @property
    def reliability_pct_mean(self) -> float:
        return math.fsum(self.reliability_pct_per_chip.values()) / len(
            self.reliability_pct_per_chip)

    @property
    def uniformity_pct_mean(self) -> float:
        return math.fsum(self.uniformity_pct_per_chip.values()) / len(
            self.uniformity_pct_per_chip)

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
            "intra_hist": self.intra,
            "inter_hist": self.inter,
            "report_version": 2,  # percentages as ratios of integer counts
        }

    def save(self, out: Path) -> None:
        """out/report.json, and out/histograms.csv with one row per
        distance per population, the lines csv.writer would write: no
        field needs quotes, and each line ends in \r\n."""
        (out / "report.json").write_text(json.dumps(self.to_json_dict(), indent=2) + "\n")
        with open(out / "histograms.csv", "w", newline="") as fh:
            fh.write("population,distance,count\r\n")
            for population, counts in (("intra", self.intra), ("inter", self.inter)):
                fh.writelines(f"{population},{d},{c}\r\n" for d, c in enumerate(counts))

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
        raise DatasetError(f"ID shorter than the {bch.N}-bit code")
    shift = length - bch.N
    anchor = int.from_bytes(anchor, "big") >> shift
    fixed = bch.decode_words((w >> shift) ^ anchor for w in _words(samples, -(-length // 8)))[0]
    for i, w in enumerate(fixed):  # in place: one chip's words are held once
        fixed[i] = w ^ anchor
    return fixed


def compute_report(campaign, post_bch: bool = False) -> MetricsReport:
    """Full metrics report for one campaign at its reference voltage V0,
    from the chip blocks that iterating a chipsim.Campaign or a
    dataset.CampaignDataset yields.

    Every field scores the same words: each chip's samples at V0, raw or
    corrected, against the chip's reference enrolled at V0, which also
    serve as the references of uniqueness and the inter histogram.  One
    pass takes the chips one at a time and reads each packed sample as one
    word, so only one chip's words are held, plus every chip's reference;
    each sample is corrected once.
    """
    from . import bch  # for the code length; see corrected_sample_words
    cfg = campaign.config
    v0 = campaign.ro_params.reference_voltage
    k0 = cfg.voltages.index(v0)
    if post_bch and cfg.id_length < bch.N:  # before the shift below goes negative
        raise DatasetError(f"ID shorter than the {bch.N}-bit code")
    length = bch.N if post_bch else cfg.id_length
    shift = cfg.id_length - length  # post-BCH words are the top 31 bits of an ID
    intra, inter = [0] * (length + 1), [0] * (length + 1)
    reliability_pct, uniformity_pct, anchors = {}, {}, []
    for c, (ref, cells) in enumerate(campaign):
        anchor = int.from_bytes(ref, "big") >> shift
        if post_bch:
            words = corrected_sample_words(cells[k0], ref, cfg.id_length)
        else:
            words = list(_words(cells[k0], -(-cfg.id_length // 8)))
        reliability_pct[c] = reliability(anchor, words, length)
        uniformity_pct[c] = uniformity(words, length)
        for w in words:
            intra[(w ^ anchor).bit_count()] += 1
        del words  # freed before the next chip's words are read
        anchors.append(anchor)
    for d in _pair_distances(anchors):
        inter[d] += 1
    return MetricsReport(
        voltage=v0,
        bch_stage="post_bch" if post_bch else "raw",
        id_length=length,
        uniqueness_pct=uniqueness(anchors, length),
        reliability_pct_per_chip=reliability_pct,
        uniformity_pct_per_chip=uniformity_pct,
        intra=intra,
        inter=inter,
    )
