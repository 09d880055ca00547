"""Binary BCH(31,16,7) codec over GF(2^5) and a code-offset fuzzy extractor.

The field is built on the primitive polynomial x^5 + x^2 + 1 (0x25); any
primitive choice gives an equivalent code, but fixing one makes offsets
and test vectors bit-exact.  Field elements are 5-bit polynomials in
alpha, multiplied as GF(2) polynomials and reduced modulo 0x25 (the
same carry-less arithmetic that reduces words modulo g).  The generator
polynomial g is the product of (x + alpha^e) over the conjugates of
alpha, alpha^3 and alpha^5, the lcm of their minimal polynomials
(degree 15, designed distance 7, corrects t = 3 errors).  decode_words
looks each word's syndrome up in a table of the coset leaders of
weight <= 3.

Bit layout of a 31-bit word: index i holds the coefficient of x^(30-i),
so bits[0:16] are the 16 systematic message bits and bits[16:31] the
parity bits, and rotating the vector is multiplication by x modulo
x^31 - 1.  Words, keys and offsets are uint8 bit arrays in that layout.
"""
from __future__ import annotations

import functools

import numpy as np

from .errors import DecodeFailure
from .rng import ensure_rng
from .sampler import pack_rows

N = 31
K = 16
T = 3
PRIMITIVE_POLY = 0x25  # x^5 + x^2 + 1


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


def _gf_mul(a: int, b: int) -> int:
    """Product of two GF(2^5) elements held as 5-bit polynomials in alpha."""
    return _gf2_mod(_gf2_mul(a, b), PRIMITIVE_POLY)


def build_generator() -> int:
    """Generator polynomial g(x) as a GF(2) coefficient bitmask.

    g is the product of (x + alpha^e) over the 15 conjugates e = p*2^k mod 31
    of alpha, alpha^3 and alpha^5, i.e. the lcm of their minimal polynomials.
    """
    roots = {p * (1 << k) % N for p in (1, 3, 5) for k in range(5)}
    coeffs = [1]  # ascending, in GF(2^5)
    for e in roots:
        root, nxt = _gf2_mod(1 << e, PRIMITIVE_POLY), [0] + coeffs  # alpha^e; x * coeffs
        for i, c in enumerate(coeffs):
            nxt[i] ^= _gf_mul(c, root)
        coeffs = nxt
    assert len(roots) == N - K and all(c in (0, 1) for c in coeffs)
    return sum(c << i for i, c in enumerate(coeffs))


GENERATOR = build_generator()


def encode(message: np.ndarray) -> np.ndarray:
    """(31,) codeword of a (16,) message bit array, systematic: parity is
    (message * x^15) mod g."""
    if np.shape(message) != (K,):
        raise ValueError(f"message must be {K} bits, got shape {np.shape(message)}")
    # Two big-endian bytes: bits[i] is the coefficient of x^(30-i) once shifted.
    shifted = int.from_bytes(np.packbits(message).tobytes(), "big") << (N - K)
    return _pattern_rows(np.array([shifted | _gf2_mod(shifted, GENERATOR)]))[0]


@functools.cache
def _decoder_tables(generator: int) -> tuple[np.ndarray, np.ndarray]:
    """Syndrome and coset-leader tables of the code generated by
    `generator`, built on first use.

    The syndrome of a word is its remainder modulo g(x), a 15-bit value.
    byte_syn[k, b] is the syndrome contributed by byte value b at bits
    8k..8k+7 of a word (bit p the coefficient of x^p).  leaders[s] is
    the error pattern of weight <= T with syndrome s, as such a word, or
    -1 where no such pattern exists.  Minimum distance 7 makes those
    patterns' syndromes distinct.
    """
    x_syn = np.array([_gf2_mod(1 << p, generator) for p in range(32)], dtype=np.uint16)
    byte_bits = np.arange(256, dtype=np.uint16)[:, None] >> np.arange(8, dtype=np.uint16) & 1
    byte_syn = np.bitwise_xor.reduce(byte_bits[None, :, :] * x_syn.reshape(4, 1, 8), axis=2)

    p = np.arange(N)
    x_syn = x_syn[:N]  # syndrome of x^p
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


def packed_words(packed: np.ndarray, length: int) -> np.ndarray:
    """Bits 0..30 of each row of (..., ceil(length/8)) bytes laid out as
    sampler.pack_rows lays out length-bit rows, as one integer per row
    whose bit p is the coefficient of x^p: bit 0 of the row is x^30."""
    head = np.zeros(packed.shape[:-1] + (8,), dtype=np.uint8)
    head[..., :min(packed.shape[-1], 8)] = packed[..., :8]
    # Big-endian, row bit i is bit 63 - pad - i, and the pad bits are zero.
    return head.view(">u8")[..., 0] >> np.uint64(33 - (packed.shape[-1] * 8 - length))


def _pattern_rows(patterns: np.ndarray) -> np.ndarray:
    """Error patterns (bit p = coefficient of x^p) as an (m, 31) bit array."""
    # Big-endian bytes unpack most significant bit first; bit 31 is always 0.
    return np.unpackbits(patterns.astype(">u4").view(np.uint8).reshape(-1, 4), axis=1)[:, 1:]


def decode_words(words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bounded-distance decoding of 31-bit words, one unsigned integer
    each whose bit p is the coefficient of x^p (see packed_words).

    Returns the corrected words and the number of bits flipped in each,
    or -1 for a word with more than T errors, which passes through
    unchanged.  A word within distance T of a codeword lands on it; a
    word farther away fails, or lands on another codeword if one lies
    within T (a miscorrection).
    """
    byte_syn, leaders = _decoder_tables(GENERATOR)
    word_bytes = words.astype("<u4").view(np.uint8).reshape(-1, 4)  # bits 8k..8k+7 at k
    fix = leaders[np.bitwise_xor.reduce(byte_syn[np.arange(4), word_bytes], axis=1)]
    flips = np.maximum(fix, 0).astype(words.dtype)
    return words ^ flips, np.where(fix < 0, -1, np.bitwise_count(flips).astype(np.int64))


def decode_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """decode_words over the rows of an (n, 31) uint8 bit array, each
    returned as corrected bits, with its number of flips (-1 if failed)."""
    if rows.ndim != 2 or rows.shape[1] != N:
        raise ValueError(f"rows must be (n, {N}) bits, got shape {rows.shape}")
    fixed, n_errors = decode_words(packed_words(pack_rows(rows), N))
    return _pattern_rows(fixed), n_errors


def decode(received: np.ndarray) -> tuple[np.ndarray, int]:
    """Correct up to 3 bit errors of a (31,) bit array; return (codeword,
    number corrected).

    Raises DecodeFailure for a word with more than t errors and no
    codeword within distance t.  At most 3 positions are ever flipped.
    """
    fixed, n_errors = decode_rows(np.asarray(received)[None, :])
    if n_errors[0] < 0:
        raise DecodeFailure(f"more than t={T} errors")
    return fixed[0], int(n_errors[0])


def fe_enroll(response: np.ndarray, seed) -> tuple[np.ndarray, np.ndarray]:
    """Enroll a (31,) response: draw a uniform (16,) key and return it with
    the public offset encode(key) XOR response, which reveals at most the
    15 parity bits' worth of information about the response."""
    if np.shape(response) != (N,):
        raise ValueError(f"response must be {N} bits, got shape {np.shape(response)}")
    key = ensure_rng(seed).integers(0, 2, size=K, dtype=np.uint8)
    return key, encode(key) ^ response


def fe_reproduce(response: np.ndarray, offset: np.ndarray) -> np.ndarray:
    """Recover the enrolled (16,) key from a noisy (31,) response (up to 3
    bit errors) and the offset fe_enroll returned."""
    if np.shape(response) != (N,):
        raise ValueError(f"response must be {N} bits, got shape {np.shape(response)}")
    codeword, _ = decode(response ^ offset)
    return codeword[:K]


# --- self-test ---------------------------------------------------------


def generator_matrix() -> np.ndarray:
    """Systematic generator matrix: row i encodes the i-th unit message."""
    return np.array([encode(unit) for unit in np.eye(K, dtype=np.uint8)])


def selftest(random_error_trials: int = 10000, seed: int = 1) -> list[tuple[str, bool]]:
    """Battery of codec checks; returns (name, passed) per check."""
    results = []

    def eval_gen(elem: int) -> int:
        acc, xp = 0, 1
        for i in range(GENERATOR.bit_length()):
            if (GENERATOR >> i) & 1:
                acc ^= xp
            xp = _gf_mul(xp, elem)
        return acc

    results.append(("generator degree 15", GENERATOR.bit_length() - 1 == N - K))
    results.append(("generator roots alpha^1..6",
                    all(eval_gen(_gf2_mod(1 << i, PRIMITIVE_POLY)) == 0 for i in range(1, 7))))
    results.append(("generator divides x^31 + 1",
                    _gf2_mod((1 << N) | 1, GENERATOR) == 0))

    g = generator_matrix()
    codewords = np.zeros(1, dtype=np.uint32)  # all 2^16, one word each, by doubling
    for row in packed_words(pack_rows(g), N).astype(np.uint32):
        codewords = np.concatenate([codewords, codewords ^ row])
    weights = np.bitwise_count(codewords)
    results.append(("minimum nonzero codeword weight == 7",
                    int(weights[1:].min()) == 7 and int(weights[0]) == 0))

    _, leaders = _decoder_tables(GENERATOR)
    held = np.flatnonzero(leaders >= 0)
    patterns = leaders[held]
    results.append(("coset-leader table holds 1+31+465+4495 distinct leaders of weight <= 3",
                    np.bincount(np.bitwise_count(patterns), minlength=T + 2).tolist()
                    == [1, 31, 465, 4495, 0]
                    and np.unique(patterns).size == held.size
                    and not decode_words(patterns.astype(np.uint32))[0].any()))

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
