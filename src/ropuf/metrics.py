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
that callers do.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path


def _words(packed, width: int):
    """Each width-byte word of packed bytes as an integer, its hex word's
    value, one at a time."""
    return (int.from_bytes(packed[i:i + width], "big") for i in range(0, len(packed), width))


def _pair_distances(words: list[int]):
    """Hamming distance of every word pair i < j, in row-major pair order."""
    return ((a ^ b).bit_count() for i, a in enumerate(words) for b in words[i + 1:])


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

    2/(N(N-1)) * sum_{i<j} HD(R_i, R_j)/L * 100, references a sequence
    of N words.
    """
    n = len(references)
    if n < 2:
        raise ValueError("uniqueness needs at least 2 references")
    total = 0.0
    for hd in _pair_distances(references):
        total += hd / length
    return 2.0 / (n * (n - 1)) * total * 100.0


def reliability(reference: int, samples, length: int) -> float:
    """[1 - mean fractional HD from the reference] * 100, over a sequence
    of sample words."""
    if not samples:
        raise ValueError("need at least one sample")
    total = sum((w ^ reference).bit_count() / length for w in samples)
    return (1.0 - total / len(samples)) * 100.0


def uniformity(responses, length: int) -> float:
    """Mean ones-fraction per response, averaged over a sequence of
    response words, in %."""
    if not responses:
        raise ValueError("need at least one response")
    fractions = [k / length for k in range(length + 1)]
    return _mean([fractions[w.bit_count()] for w in responses]) * 100.0


@dataclass
class MetricsReport:
    """Aggregated evaluation results for one campaign at one voltage."""

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
            "intra_hist": self.intra,
            "inter_hist": self.inter,
            "voltage_fit": None,  # kept so reports keep their keys
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
        raise ValueError(f"ID shorter than the {bch.N}-bit code")
    shift = length - bch.N
    anchor = int.from_bytes(anchor, "big") >> shift
    fixed = bch.decode_words((w >> shift) ^ anchor for w in _words(samples, -(-length // 8)))[0]
    for i, w in enumerate(fixed):  # in place: one chip's words are held once
        fixed[i] = w ^ anchor
    return fixed


def _chip_words(samples, anchor, length: int, post_bch: bool) -> list[int]:
    """One chip's packed samples at one voltage as words, raw or after
    error correction toward anchor (see corrected_sample_words)."""
    if post_bch:
        return corrected_sample_words(samples, anchor, length)
    return list(_words(samples, -(-length // 8)))


def compute_report(campaign, voltage: float | None = None,
                   post_bch: bool = False) -> MetricsReport:
    """Full metrics report for one campaign at one voltage, from the chip
    blocks that iterating a chipsim.Campaign or a dataset.CampaignDataset
    yields.

    Reliability and uniformity use the samples at the requested voltage
    against that voltage's own enrolled reference; intra/inter histograms
    are always computed at the reference voltage.  One pass takes the
    chips one at a time and reads each packed sample as one word, so only
    one chip's words are held, plus every chip's references at the two
    voltages; each sample is corrected at most once.
    """
    from . import bch  # for the code length; see corrected_sample_words
    cfg = campaign.config
    v0 = campaign.ro_params.reference_voltage
    v = v0 if voltage is None else voltage
    if v not in cfg.voltages:
        raise ValueError(f"voltage {v} not in dataset")
    k, k0 = cfg.voltages.index(v), cfg.voltages.index(v0)
    if post_bch and cfg.id_length < bch.N:  # before the shift below goes negative
        raise ValueError(f"ID shorter than the {bch.N}-bit code")
    length = bch.N if post_bch else cfg.id_length
    shift = cfg.id_length - length  # post-BCH words are the top 31 bits of an ID
    intra, inter = [0] * (length + 1), [0] * (length + 1)
    reliability_pct, uniformity_pct, refs, anchors = {}, {}, [], []
    for c, (chip_refs, cells) in enumerate(campaign):
        ref, anchor = (int.from_bytes(chip_refs[i], "big") >> shift for i in (k, k0))
        words = _chip_words(cells[k], chip_refs[k0], cfg.id_length, post_bch)
        reliability_pct[c] = reliability(ref, words, length)
        uniformity_pct[c] = uniformity(words, length)
        if k != k0:
            words = _chip_words(cells[k0], chip_refs[k0], cfg.id_length, post_bch)
        for w in words:
            intra[(w ^ anchor).bit_count()] += 1
        del words  # freed before the next chip's words are read
        refs.append(ref)
        anchors.append(anchor)
    for d in _pair_distances(anchors):
        inter[d] += 1
    return MetricsReport(
        voltage=v,
        bch_stage="post_bch" if post_bch else "raw",
        id_length=length,
        uniqueness_pct=uniqueness(refs, length),
        reliability_pct_per_chip=reliability_pct,
        uniformity_pct_per_chip=uniformity_pct,
        intra=intra,
        inter=inter,
    )
