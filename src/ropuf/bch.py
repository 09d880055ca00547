"""Binary BCH(31,16,7) codec over GF(2^5) and a code-offset fuzzy extractor.

The field is built on the primitive polynomial x^5 + x^2 + 1 (0x25); any
primitive choice gives an equivalent code, but fixing one makes helper
data and test vectors bit-exact.  The generator polynomial is the lcm of
the minimal polynomials of alpha, alpha^3 and alpha^5 (degree 15,
designed distance 7, corrects t = 3 errors).  Decoding looks each word's
syndrome up in a table of the coset leaders of weight <= 3.

Bit layout of a 31-bit word: index i holds the coefficient of x^(30-i),
so bits[0:16] are the 16 systematic message bits and bits[16:31] the
parity bits, and rotating the vector is multiplication by x modulo
x^31 - 1.
"""
from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DecodeFailure
from .rng import ensure_rng
from .sampler import ResponseWord

N = 31
K = 16
T = 3
PRIMITIVE_POLY = 0x25  # x^5 + x^2 + 1


class Gf32:
    """GF(2^5) arithmetic via exp/log tables."""

    def __init__(self, prim_poly: int = PRIMITIVE_POLY):
        self.exp = [0] * (2 * N)
        self.log = [0] * (N + 1)
        x = 1
        for i in range(N):
            self.exp[i] = x
            self.log[x] = i
            x <<= 1
            if x & 0x20:
                x ^= prim_poly
        for i in range(N, 2 * N):
            self.exp[i] = self.exp[i - N]

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self.exp[self.log[a] + self.log[b]]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("no inverse of 0 in GF(32)")
        return self.exp[N - self.log[a]]

    def pow_alpha(self, e: int) -> int:
        return self.exp[e % N]


GF = Gf32()


def _minimal_polynomial(power: int) -> list[int]:
    """Minimal polynomial of alpha^power over GF(2), coefficients ascending."""
    cls, e = [], power % N
    while e not in cls:
        cls.append(e)
        e = (2 * e) % N
    poly = [1]  # product of (x + alpha^e) over the conjugacy class
    for e in cls:
        root = GF.pow_alpha(e)
        nxt = [0] * (len(poly) + 1)
        for i, c in enumerate(poly):
            nxt[i + 1] ^= c
            nxt[i] ^= GF.mul(c, root)
        poly = nxt
    assert all(c in (0, 1) for c in poly)
    return poly


def _poly_to_mask(coeffs: list[int]) -> int:
    mask = 0
    for i, c in enumerate(coeffs):
        mask |= (c & 1) << i
    return mask


def _gf2_mul(a: int, b: int) -> int:
    out = 0
    while b:
        if b & 1:
            out ^= a
        a <<= 1
        b >>= 1
    return out


def _gf2_mod(a: int, m: int) -> int:
    dm = m.bit_length() - 1
    while a.bit_length() - 1 >= dm and a:
        a ^= m << (a.bit_length() - 1 - dm)
    return a


def build_generator() -> int:
    """Generator polynomial g(x) as a GF(2) coefficient bitmask.

    g = lcm of the minimal polynomials of alpha, alpha^3, alpha^5; the
    three are distinct and irreducible, so the lcm is their product.
    """
    g = 1
    for p in (1, 3, 5):
        g = _gf2_mul(g, _poly_to_mask(_minimal_polynomial(p)))
    assert g.bit_length() - 1 == N - K
    return g


GENERATOR = build_generator()


def generator_coefficients() -> list[int]:
    """Coefficients of g(x), ascending degree (length 16)."""
    return [(GENERATOR >> i) & 1 for i in range(N - K + 1)]


def encode(message: ResponseWord) -> ResponseWord:
    """Systematic encoding: parity is (message * x^15) mod g."""
    if len(message) != K:
        raise ValueError(f"message must be {K} bits, got {len(message)}")
    shifted = message.to_int() << (N - K)  # bits[i] is the coefficient of x^(30-i)
    return ResponseWord(_pattern_rows(np.array([shifted | _gf2_mod(shifted, GENERATOR)]))[0])


@functools.cache
def _decoder_tables(generator: int) -> tuple[np.ndarray, np.ndarray]:
    """Syndrome and coset-leader tables of the code generated by
    `generator`, built on first use.

    The syndrome of a word is its remainder modulo g(x), a 15-bit value.
    byte_syn[k, b] is the syndrome contributed by packed byte value
    b at byte position k of a row (np.packbits layout, bit 0 most
    significant; the pad bit after bit 30 is zero).  leaders[s] is the
    error pattern of weight <= T with syndrome s, as an integer whose bit
    p is the coefficient of x^p, or -1 where no such pattern exists.
    Minimum distance 7 makes those patterns' syndromes distinct.
    """
    bit_syn = np.array([_gf2_mod(1 << (N - 1 - i), generator) for i in range(N)] + [0],
                       dtype=np.uint16)  # syndrome of bits[i]; index N is the pad
    byte_bits = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1)
    byte_syn = np.bitwise_xor.reduce(
        byte_bits[None, :, :] * bit_syn.reshape(4, 1, 8), axis=2)

    p = np.arange(N)
    x_syn = bit_syn[N - 1 - p]  # syndrome of x^p
    lt = p[:, None] < p
    i, j = np.nonzero(lt)
    a, b, c = np.nonzero(lt[:, :, None] & lt[None, :, :])
    leaders = np.full(1 << (N - K), -1, dtype=np.int32)
    leaders[0] = 0
    leaders[x_syn] = 1 << p
    leaders[x_syn[i] ^ x_syn[j]] = (1 << i) | (1 << j)
    leaders[x_syn[a] ^ x_syn[b] ^ x_syn[c]] = (1 << a) | (1 << b) | (1 << c)
    byte_syn.flags.writeable = leaders.flags.writeable = False
    return byte_syn, leaders


def _syndrome_of(rows: np.ndarray) -> np.ndarray:
    """15-bit syndrome of each row of an (n, 31) bit array."""
    byte_syn, _ = _decoder_tables(GENERATOR)
    return np.bitwise_xor.reduce(
        byte_syn[np.arange(4), np.packbits(rows, axis=1)], axis=1)


def _pattern_rows(patterns: np.ndarray) -> np.ndarray:
    """Error patterns (bit p = coefficient of x^p) as an (m, 31) bit array."""
    # Big-endian bytes unpack most significant bit first; bit 31 is always 0.
    return np.unpackbits(patterns.astype(">u4").view(np.uint8).reshape(-1, 4), axis=1)[:, 1:]


def decode_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bounded-distance decoding of an (n, 31) uint8 bit array.

    Returns the corrected rows and the number of bits flipped in each,
    or -1 for a row with more than T errors, which passes through
    unchanged.  A row within distance T of a codeword lands on it; a row
    farther away fails, or lands on another codeword if one lies within
    T (a miscorrection).
    """
    if rows.ndim != 2 or rows.shape[1] != N:
        raise ValueError(f"rows must be (n, {N}) bits, got shape {rows.shape}")
    leaders = _decoder_tables(GENERATOR)[1][_syndrome_of(rows)]
    n_errors = np.where(leaders < 0, -1, 0)
    fix = np.flatnonzero(leaders > 0)
    out = rows.copy()
    out[fix] ^= _pattern_rows(leaders[fix])
    n_errors[fix] = np.bitwise_count(leaders[fix])
    return out, n_errors


def decode(received: ResponseWord) -> tuple[ResponseWord, int]:
    """Correct up to 3 bit errors; return (codeword, number corrected).

    Raises DecodeFailure for a word with more than t errors and no
    codeword within distance t.  At most 3 positions are ever flipped.
    """
    fixed, n_errors = decode_rows(received.bits[None, :])
    if n_errors[0] < 0:
        raise DecodeFailure(f"more than t={T} errors")
    return ResponseWord(fixed[0]), int(n_errors[0])


@dataclass(frozen=True)
class HelperData:
    """Public code-offset helper: offset = encode(key) XOR response.

    The offset reveals at most the 15 parity bits' worth of information
    about the response; key_hash is an optional integrity digest of the
    enrolled key.
    """

    offset: ResponseWord
    key_hash: str | None = None

    def to_json_dict(self) -> dict:
        return {
            "offset_hex": self.offset.to_hex(),
            "key_hash_hex": self.key_hash,
            "code": "BCH(31,16,7)",
            "primpoly": "0x25",
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "HelperData":
        return cls(offset=ResponseWord.from_hex(data["offset_hex"], N),
                   key_hash=data.get("key_hash_hex"))


def key_digest(key: ResponseWord) -> str:
    # Imported here: hashlib loads OpenSSL (several MiB of resident memory),
    # which no CLI command needs.
    import hashlib
    return hashlib.sha256(np.packbits(key.bits).tobytes()).hexdigest()


def fe_enroll(response: ResponseWord, seed) -> tuple[ResponseWord, HelperData]:
    """Enroll a 31-bit response: draw a uniform 16-bit key, publish offset."""
    if len(response) != N:
        raise ValueError(f"response must be {N} bits, got {len(response)}")
    rng = ensure_rng(seed)
    key = ResponseWord(rng.integers(0, 2, size=K, dtype=np.uint8))
    offset = encode(key) ^ response
    return key, HelperData(offset=offset, key_hash=key_digest(key))


def fe_reproduce(response: ResponseWord, helper: HelperData) -> ResponseWord:
    """Recover the enrolled key from a noisy response (up to 3 bit errors)."""
    if len(response) != N:
        raise ValueError(f"response must be {N} bits, got {len(response)}")
    codeword, _ = decode(response ^ helper.offset)
    return ResponseWord(codeword.bits[:K])


def save_helper(helper: HelperData, path: str | Path) -> None:
    Path(path).write_text(json.dumps(helper.to_json_dict(), indent=2) + "\n")


def load_helper(path: str | Path) -> HelperData:
    return HelperData.from_json_dict(json.loads(Path(path).read_text()))


# --- self-test ---------------------------------------------------------


def generator_matrix() -> np.ndarray:
    """Systematic generator matrix: row i encodes the i-th unit message."""
    g = np.zeros((K, N), dtype=np.uint8)
    for i in range(K):
        unit = np.zeros(K, dtype=np.uint8)
        unit[i] = 1
        g[i] = encode(ResponseWord(unit)).bits
    return g


def selftest(random_error_trials: int = 10000, seed: int = 1) -> list[tuple[str, bool]]:
    """Battery of codec checks; returns (name, passed) per check."""
    results = []

    def eval_gen(elem: int) -> int:
        acc, xp = 0, 1
        for i in range(GENERATOR.bit_length()):
            if (GENERATOR >> i) & 1:
                acc ^= xp
            xp = GF.mul(xp, elem)
        return acc

    results.append(("generator degree 15", GENERATOR.bit_length() - 1 == N - K))
    results.append(("generator roots alpha^1..6",
                    all(eval_gen(GF.pow_alpha(i)) == 0 for i in range(1, 7))))
    results.append(("generator divides x^31 + 1",
                    _gf2_mod((1 << N) | 1, GENERATOR) == 0))

    g = generator_matrix()
    msgs = ((np.arange(1 << K)[:, None] >> np.arange(K - 1, -1, -1)) & 1).astype(np.uint8)
    weights = ((msgs @ g) % 2).sum(axis=1)
    results.append(("minimum nonzero codeword weight == 7",
                    int(weights[1:].min()) == 7 and int(weights[0]) == 0))

    _, leaders = _decoder_tables(GENERATOR)
    held = np.flatnonzero(leaders >= 0)
    patterns = leaders[held]
    results.append(("coset-leader table holds 1+31+465+4495 distinct leaders of weight <= 3",
                    np.bincount(np.bitwise_count(patterns), minlength=T + 2).tolist()
                    == [1, 31, 465, 4495, 0]
                    and np.unique(patterns).size == held.size
                    and np.array_equal(_syndrome_of(_pattern_rows(patterns)), held)))

    rng = ensure_rng(seed)
    base = (rng.integers(0, 2, K, dtype=np.uint8) @ g) % 2
    i, j = np.triu_indices(N)  # i == j gives the 31 single-error cases
    noise = np.eye(N, dtype=np.uint8)[i] | np.eye(N, dtype=np.uint8)[j]
    fixed, n_errors = decode_rows(base ^ noise)
    results.append(("exhaustive 1- and 2-error correction",
                    bool((fixed == base).all()) and np.array_equal(n_errors, noise.sum(axis=1))))

    codewords = (rng.integers(0, 2, (random_error_trials, K), dtype=np.uint8) @ g) % 2
    noise = (np.argsort(rng.random((random_error_trials, N)), axis=1) < 3).astype(np.uint8)
    fixed, n_errors = decode_rows(codewords ^ noise)
    results.append((f"{random_error_trials} random 3-error corrections",
                    bool((fixed == codewords).all() and (n_errors == 3).all())))

    codewords = (rng.integers(0, 2, (1000, K), dtype=np.uint8) @ g) % 2
    fixed, n_errors = decode_rows(codewords)
    results.append(("1000 zero-error decodes are identities",
                    bool((fixed == codewords).all() and (n_errors == 0).all())))
    return results
