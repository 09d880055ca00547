"""Independent reference implementations used to check the package.

Everything here is exact (Fraction arithmetic) or a direct transcription
of the defining formulas with explicit loops; none of it shares code
with the implementations under test.
"""
import functools
import math
from fractions import Fraction

import numpy as np


def closed_form_bit(k: int, rho) -> int:
    """floor((2k+1)/rho) mod 2, exact-integer arguments resolving to the
    parity of that integer minus one (pre-toggle rule)."""
    x = Fraction(2 * k + 1) / Fraction(rho)
    m = x.numerator // x.denominator
    if x == m:
        return (m - 1) % 2
    return m % 2


def closed_form_word(length: int, rho) -> list[int]:
    return [closed_form_bit(k, rho) for k in range(length)]


def event_walk_word(t1, t2, length: int) -> list[int]:
    """Walk both square waves event by event in exact time.

    RO1 toggles at n*t1/2; the k-th rising edge of RO2 is at
    (2k+1)*t2/2.  Toggles strictly before a sample instant are applied
    first; a toggle exactly at the sample instant is not (the flip-flop
    captures the pre-toggle level).
    """
    h1 = Fraction(t1) / 2
    h2 = Fraction(t2) / 2
    bits = []
    level, next_toggle = 0, 1
    for k in range(length):
        sample_time = (2 * k + 1) * h2
        while next_toggle * h1 < sample_time:
            level ^= 1
            next_toggle += 1
        bits.append(level)
    return bits


def toggle_counts(unit, v: float, g1, g2, extension) -> np.ndarray:
    """RO1 toggles before each of RO2's L rising edges in one enable cycle
    at supply voltage v, unit uncoupled or capacitively coupled, rebuilt
    row by row from the model: periods T (1 - gamma (v - v0)), pulled
    together by kappa/2 of their difference; half-periods (T/2)(1 + sigma g),
    floored at 1e-12 of T/2; RO1's normals are g1, then 16 at a time from
    the generator extension while RO1's last boundary is not past RO2's
    last rising edge; RO2's are g2 mixed with g1[:2L-1] by kappa.  One
    searchsorted per row, so no count wraps; the row's word is their parity."""
    def half_periods(period, sigma, g):
        half = 0.5 * period
        return np.maximum((g * sigma + 1.0) * half, half * 1e-12)

    v0, n2 = unit.reference_voltage, 2 * unit.word_length - 1
    t1, t2 = (r.period_at_ref * (1.0 - r.gamma * (v - v0)) for r in (unit.ro1, unit.ro2))
    assert unit.coupling.mode in ("none", "capacitive")
    kappa = unit.coupling.strength
    pull = 0.5 * kappa * (t1 - t2)
    t1, t2 = t1 - pull, t2 + pull
    s1, s2 = unit.ro1.jitter_sigma, unit.ro2.jitter_sigma
    b1 = np.cumsum(half_periods(t1, s1, g1))
    mixed = kappa * g1[:n2] + np.sqrt(1.0 - kappa * kappa) * g2
    edges = np.cumsum(half_periods(t2, s2, mixed))[::2]
    while b1[-1] <= edges[-1]:
        extra = np.cumsum(half_periods(t1, s1, extension.standard_normal(16)))
        b1 = np.concatenate([b1, b1[-1] + extra])
    return np.searchsorted(b1, edges, side="left")


def flip_rates(h1: float, h2: float, sigma1: float, sigma2: float, rho: float,
               length: int) -> list[float]:
    """Per-bit probability that a jittered enable cycle reads a bit other
    than the noiseless word's, by the crossing model.  RO1 boundary j sits
    at j*h1 and RO2's rising edge k at (2k+1)*h2, each a sum of jittered
    half-periods (T/2)(1 + sigma g), RO2's normals correlated with RO1's
    by rho; their difference is Gaussian with mean j*h1 - (2k+1)*h2 and
    variance s1^2 h1^2 j + s2^2 h2^2 (2k+1) - 2 rho s1 s2 h1 h2 min(j, 2k+1).
    Boundary j lands on the other side of the edge with probability
    q_j = Phi(-|mean|/sd); taking crossings as independent, bit k flips
    when an odd number of them do: (1 - prod_j (1 - 2 q_j)) / 2."""
    rates = []
    for k in range(length):
        m = 2 * k + 1
        keep = 1.0
        for j in range(1, 2 * math.ceil(m * h2 / h1) + 8):  # far boundaries never cross
            var = (sigma1 * h1) ** 2 * j + (sigma2 * h2) ** 2 * m \
                - 2.0 * rho * sigma1 * sigma2 * h1 * h2 * min(j, m)
            if var > 0.0:
                keep *= 1.0 - math.erfc(abs(j * h1 - m * h2) / math.sqrt(2.0 * var))
        rates.append((1.0 - keep) / 2.0)
    return rates


def pack_rows(rows: np.ndarray) -> np.ndarray:
    """(..., ceil(L/8)) bytes of (..., L) bit rows, laid out as their hex
    words: zero pad bits first, then bit 0 as the most significant bit."""
    return np.packbits(np.pad(rows, [(0, 0)] * (rows.ndim - 1) + [(-rows.shape[-1] % 8, 0)]),
                       axis=-1)


def unpack_rows(packed: np.ndarray, length: int) -> np.ndarray:
    """(..., length) bit rows of pack_rows bytes, the pad bits dropped."""
    return np.unpackbits(packed, axis=-1)[..., packed.shape[-1] * 8 - length:]


def uniqueness_formula(references: list[list[int]], length: int) -> float:
    """Direct transcription of the pairwise-distance average, exact in
    Fractions and rounded once."""
    n = len(references)
    total = Fraction(0)
    for i in range(n - 1):
        for j in range(i + 1, n):
            hd = sum(a != b for a, b in zip(references[i], references[j]))
            total += Fraction(hd, length)
    return float(Fraction(2, n * (n - 1)) * total * 100)


def reliability_formula(reference: list[int], samples: list[list[int]],
                        length: int, t: int) -> float:
    """[1 - mean fractional HD] * 100, exact in Fractions and rounded once."""
    total = Fraction(0)
    for s in samples[:t]:
        total += Fraction(sum(a != b for a, b in zip(reference, s)), length)
    return float((1 - total / t) * 100)


def hex_word(bits) -> str:
    """ceil(L/4) hex digits of the integer whose binary digits, most
    significant first, are the L bits."""
    return format(int("".join(str(int(b)) for b in bits), 2), f"0{-(-len(bits) // 4)}x")


def hex_word_bits(word: str, length: int) -> list[int]:
    """The length low bits of a hex word's value, most significant first."""
    return [int(c) for c in format(int(word, 16), f"0{length}b")]


def uniformity_formula(responses: list[list[int]], length: int) -> float:
    """Mean ones-percentage per response, exact in Fractions and rounded once."""
    per_response = [Fraction(sum(r), length) * 100 for r in responses]
    return float(sum(per_response) / len(per_response))


# --- BCH(31,16,7) algebraic decoder ------------------------------------
# GF(2^5) on x^5 + x^2 + 1; a word's bits[i] is the coefficient of x^(30-i).

GF_EXP = [0] * 62
GF_LOG = [0] * 32
_x = 1
for _i in range(31):
    GF_EXP[_i] = GF_EXP[_i + 31] = _x
    GF_LOG[_x] = _i
    _x <<= 1
    if _x & 0x20:
        _x ^= 0x25


def modal_row_by_unique(words: np.ndarray) -> np.ndarray:
    """The modal row of words (R, L) by numpy's sort of whole rows: the
    unique most frequent row, else the bitwise majority, ties to 0."""
    rows, counts = np.unique(words, axis=0, return_counts=True)
    if np.count_nonzero(counts == counts.max()) == 1:
        return rows[counts.argmax()]
    return (2 * words.sum(axis=0, dtype=np.int64) > len(words)).astype(words.dtype)


def line_fit_by_polyfit(points) -> dict:
    """Least-squares line and R^2 by np.polyfit (LAPACK's SVD), R^2 from
    the residuals."""
    x = np.array([p[0] for p in points], dtype=np.float64)
    y = np.array([p[1] for p in points], dtype=np.float64)
    slope, intercept = np.polyfit(x, y, 1)
    ss_res = float(np.sum((y - (slope * x + intercept)) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    return {"slope": float(slope), "intercept": float(intercept),
            "r2": 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot}


def sweep_by_numpy(campaign) -> list[tuple[float, float]]:
    """chipsim.voltage_sweep with each cell's mismatches counted by numpy:
    the packed samples viewed as (T, ceil(L/8)) bytes, XORed with the
    packed reference at V0 and their set bits summed."""
    cfg = campaign.config
    v0 = campaign.ro_params.reference_voltage
    k0 = cfg.voltages.index(v0)
    mismatches = [0] * len(cfg.voltages)
    for ref, cells in campaign:
        ref = np.frombuffer(ref, dtype=np.uint8)
        for k, chip_cells in enumerate(cells):
            rows = np.frombuffer(chip_cells, dtype=np.uint8).reshape(-1, ref.size)
            mismatches[k] += int(np.bitwise_count(rows ^ ref).sum())
    n = cfg.n_chips * cfg.samples_per_chip
    return [(v - v0, m / n - mismatches[k0] / n) for v, m in zip(cfg.voltages, mismatches)]


def gf_mul(a: int, b: int) -> int:
    if a == 0 or b == 0:
        return 0
    return GF_EXP[GF_LOG[a] + GF_LOG[b]]


def gf_inv(a: int) -> int:
    return GF_EXP[31 - GF_LOG[a]]


def bch_syndromes(bits) -> list[int]:
    """S_1..S_6: the received polynomial evaluated at alpha^1..alpha^6."""
    syn = []
    for j in range(1, 7):
        acc = 0
        for i, b in enumerate(bits):
            if b:
                acc ^= GF_EXP[(j * (30 - i)) % 31]
        syn.append(acc)
    return syn


def berlekamp_massey(syn: list[int]) -> list[int]:
    """Error locator polynomial from S_1..S_6, ascending coefficients."""
    c, b = [1], [1]
    length, m, bb = 0, 1, 1
    for n, s in enumerate(syn):
        d = s
        for i in range(1, length + 1):
            if i < len(c):
                d ^= gf_mul(c[i], syn[n - i])
        if d == 0:
            m += 1
            continue
        coef = gf_mul(d, gf_inv(bb))
        shifted = [0] * m + [gf_mul(coef, x) for x in b]
        merged = [0] * max(len(c), len(shifted))
        for i, x in enumerate(c):
            merged[i] ^= x
        for i, x in enumerate(shifted):
            merged[i] ^= x
        if 2 * length <= n:
            b, bb, length, m = c, d, n + 1 - length, 1
        else:
            m += 1
        c = merged
    while len(c) > 1 and c[-1] == 0:
        c.pop()
    return c


def bch_decode(bits) -> tuple[list[int], int] | None:
    """Berlekamp-Massey plus a Chien search: (codeword bits, number of
    errors corrected), or None for a word with more than 3 errors and
    no codeword within distance 3."""
    bits = [int(b) for b in bits]
    syn = bch_syndromes(bits)
    if not any(syn):
        return bits, 0
    locator = berlekamp_massey(syn)
    degree = len(locator) - 1
    if degree > 3:
        return None
    positions = []
    for p in range(31):  # Chien search: a root alpha^-p marks an error at x^p
        x = GF_EXP[(31 - p) % 31]
        acc, xp = locator[0], 1
        for coef in locator[1:]:
            xp = gf_mul(xp, x)
            acc ^= gf_mul(coef, xp)
        if acc == 0:
            positions.append(p)
    if len(positions) != degree:
        return None
    for p in positions:
        bits[30 - p] ^= 1
    if any(bch_syndromes(bits)):
        return None
    return bits, degree


def _poly_mod(a: int, m: int) -> int:
    """Remainder of GF(2) polynomial a (bit p = coefficient of x^p) modulo m."""
    while a.bit_length() >= m.bit_length():
        a ^= m << (a.bit_length() - m.bit_length())
    return a


def word_bits(word: int) -> list[int]:
    """The 31 bits of a word (bit p = coefficient of x^p), x^30 first."""
    return [(word >> (30 - i)) & 1 for i in range(31)]


def bits_word(bits) -> int:
    """The integer whose binary digits, most significant first, are bits:
    an ID's word (bit 0 the most significant), the bch word of 31 bits
    x^30 first, or the message of 16."""
    return int("".join(str(int(b)) for b in bits), 2)


def error_word(positions) -> int:
    """The word flipping the bits at array indices positions (index i is
    the coefficient of x^(30-i), as in word_bits)."""
    return sum(1 << (30 - int(i)) for i in positions)


def fe_reproduce(decode, response: int, offset: int) -> int:
    """The 16-bit key a code-offset fuzzy extractor recovers from a noisy
    31-bit response and its enrollment offset: the message bits 15..30 of
    the codeword decode corrects response ^ offset to."""
    return decode(response ^ offset)[0] >> 15


def generator_rows(generator: int) -> list[int]:
    """Systematic generator matrix of the (31,16) code of `generator`, as
    words: row i, the codeword of message bit i, is x^(15+i) plus its
    remainder modulo g."""
    return [1 << (15 + i) | _poly_mod(1 << (15 + i), generator) for i in range(16)]


def codebook(rows: list[int]) -> list[int]:
    """Every XOR of a subset of rows, entry m the XOR of the rows at m's
    set bits: all 2^16 codewords, each at its message, for generator_rows."""
    words = [0]
    for row in rows:
        words += [w ^ row for w in words]
    return words


@functools.cache
def _syndrome_tables(generator: int) -> tuple[np.ndarray, np.ndarray]:
    """The numpy syndrome byte tables and coset-leader table of the code
    generated by `generator`, as the package built them before its tables
    became tuples of ints."""
    x_syn = np.array([_poly_mod(1 << p, generator) for p in range(32)], dtype=np.uint16)
    byte_bits = np.arange(256, dtype=np.uint16)[:, None] >> np.arange(8, dtype=np.uint16) & 1
    byte_syn = np.bitwise_xor.reduce(byte_bits[None, :, :] * x_syn.reshape(4, 1, 8), axis=2)
    p = np.arange(31)
    x_syn = x_syn[:31]  # syndrome of x^p
    lt = p[:, None] < p
    i, j = np.nonzero(lt)
    a, b, c = np.nonzero(lt[:, :, None] & lt[None, :, :])
    leaders = np.full(1 << 15, -1, dtype=np.int32)
    leaders[0] = 0
    leaders[x_syn] = 1 << p
    leaders[x_syn[i] ^ x_syn[j]] = (1 << i) | (1 << j)
    leaders[x_syn[a] ^ x_syn[b] ^ x_syn[c]] = (1 << a) | (1 << b) | (1 << c)
    return byte_syn, leaders


def table_decode(words: list[int], generator: int) -> tuple[list[int], list[int]]:
    """Coset-leader decoding of 31-bit words (bit p = coefficient of x^p)
    with numpy tables, vectorized over the words: (corrected words, bits
    flipped in each or -1 for a failure)."""
    byte_syn, leaders = _syndrome_tables(generator)
    words = np.asarray(words, dtype=np.uint32)
    word_bytes = words.astype("<u4").view(np.uint8).reshape(-1, 4)  # bits 8k..8k+7 at k
    fix = leaders[np.bitwise_xor.reduce(byte_syn[np.arange(4), word_bytes], axis=1)]
    flips = np.maximum(fix, 0).astype(words.dtype)
    return ((words ^ flips).tolist(),
            np.where(fix < 0, -1, np.bitwise_count(flips).astype(np.int64)).tolist())


# --- campaign report ---------------------------------------------------


def report_formula(references: list, samples: dict, v0: float, post_bch: bool) -> dict:
    """The JSON report of metrics.compute_report, from (n_chips, L)
    reference bit lists and (n_chips, T, L) sample bit lists per voltage,
    of which it reads those at v0: distances and ones counted bit by bit,
    post-BCH samples decoded row by row with bch_decode toward the chip's
    reference, each percentage exact in Fractions and rounded once, and
    each mean over chips the exact sum of the per-chip floats rounded
    once, over the chip count."""
    length = 31 if post_bch else len(references[0])
    refs = [r[:length] for r in references]

    def mean(values):
        return float(sum(map(Fraction, values))) / len(values)

    reliability, uniformity, intra = {}, {}, [0] * (length + 1)
    for chip, ref in enumerate(refs):
        rows = [row[:length] for row in samples[v0][chip]]
        if post_bch:
            for k, row in enumerate(rows):
                received = [a ^ b for a, b in zip(row, ref)]
                decoded = bch_decode(received)
                fixed = received if decoded is None else decoded[0]
                rows[k] = [a ^ b for a, b in zip(fixed, ref)]
        reliability[str(chip)] = reliability_formula(ref, rows, length, len(rows))
        uniformity[str(chip)] = uniformity_formula(rows, length)
        for row in rows:
            intra[sum(a != b for a, b in zip(ref, row))] += 1
    inter = [0] * (length + 1)
    for i in range(len(refs) - 1):
        for j in range(i + 1, len(refs)):
            inter[sum(a != b for a, b in zip(refs[i], refs[j]))] += 1
    return {
        "voltage": v0,
        "bch_stage": "post_bch" if post_bch else "raw",
        "id_length": length,
        "uniqueness_pct": uniqueness_formula(refs, length),
        "reliability_pct_mean": mean(reliability.values()),
        "reliability_pct_per_chip": reliability,
        "uniformity_pct_mean": mean(uniformity.values()),
        "uniformity_pct_per_chip": uniformity,
        "intra_hist": intra,
        "inter_hist": inter,
        "report_version": 2,
    }
