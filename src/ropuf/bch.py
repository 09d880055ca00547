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
x^31 - 1.  decode_words, the one decoder, takes and returns words as
integers whose bit p is the coefficient of x^p, so importing this
module loads no numpy.  The bit-array forms (encode, decode_rows,
decode, the extractor) take uint8 arrays in the layout above and import
numpy when called.
"""
from __future__ import annotations

import functools
from array import array
from collections import Counter
from itertools import combinations
from typing import TYPE_CHECKING

from .errors import DecodeFailure

if TYPE_CHECKING:
    from collections.abc import Iterable

    import numpy as np

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


def _encode_word(message: int) -> int:
    """Codeword of a 16-bit message as a word, systematic: message * x^15
    plus its remainder modulo g, so bit 15 of the message is x^30."""
    shifted = message << (N - K)
    return shifted | _gf2_mod(shifted, GENERATOR)


def _word_rows(words) -> np.ndarray:
    """Words (bit p = coefficient of x^p) as an (m, 31) bit array."""
    import numpy as np
    # Big-endian bytes unpack most significant bit first; bit 31 is always 0.
    return np.unpackbits(np.array(words, dtype=">u4").view(np.uint8).reshape(-1, 4),
                         axis=1)[:, 1:]


def _row_words(rows: np.ndarray) -> list[int]:
    """The rows of an (m, 31) bit array as words: bit 0 of a row is x^30."""
    import numpy as np
    return (np.packbits(rows, axis=1).view(">u4")[:, 0] >> 1).tolist()


def encode(message: np.ndarray) -> np.ndarray:
    """(31,) codeword of a (16,) message bit array, systematic: parity is
    (message * x^15) mod g."""
    import numpy as np
    if np.shape(message) != (K,):
        raise ValueError(f"message must be {K} bits, got shape {np.shape(message)}")
    return _word_rows([_encode_word(int.from_bytes(np.packbits(message).tobytes(), "big"))])[0]


@functools.cache
def _decoder_tables(generator: int) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """Syndrome and coset-leader tables of the code generated by
    `generator`, as tuples of ints, built on first use.

    The syndrome of a word is its remainder modulo g(x), a 15-bit value.
    byte_syn[k][b] is the syndrome contributed by byte value b at bits
    8k..8k+7 of a word (bit p the coefficient of x^p).  leaders[s] is
    the error pattern of weight <= T with syndrome s, as such a word, or
    -1 where no such pattern exists.  Minimum distance 7 makes those
    patterns' syndromes distinct.
    """
    x_syn = [_gf2_mod(1 << p, generator) for p in range(32)]  # syndrome of x^p
    byte_syn = []
    for k in range(4):
        table = [0]  # each bit of the byte doubles the table: bit b is x^(8k+b)
        for syn in x_syn[8 * k:8 * k + 8]:
            table += [s ^ syn for s in table]
        byte_syn.append(tuple(table))
    leaders = [-1] * (1 << (N - K))
    for weight in range(T + 1):
        for positions in combinations(range(N), weight):
            syndrome = 0
            for p in positions:
                syndrome ^= x_syn[p]
            leaders[syndrome] = sum(1 << p for p in positions)
    return tuple(byte_syn), tuple(leaders)


def decode_words(words: Iterable[int]) -> tuple[list[int], list[int]]:
    """Bounded-distance decoding of 31-bit words, each an integer whose
    bit p is the coefficient of x^p.

    Returns the corrected words and the number of bits flipped in each,
    or -1 for a word with more than T errors, which passes through
    unchanged.  A word within distance T of a codeword lands on it; a
    word farther away fails, or lands on another codeword if one lies
    within T (a miscorrection).
    """
    (syn0, syn1, syn2, syn3), leaders = _decoder_tables(GENERATOR)
    fixed, flips = [], []
    for word in words:
        error = leaders[syn0[word & 255] ^ syn1[word >> 8 & 255] ^ syn2[word >> 16 & 255]
                        ^ syn3[word >> 24 & 255]]
        if error < 0:
            fixed.append(word)
            flips.append(-1)
        else:
            fixed.append(word ^ error)
            flips.append(error.bit_count())
    return fixed, flips


def decode_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """decode_words over the rows of an (n, 31) uint8 bit array, each
    returned as corrected bits, with its number of flips (-1 if failed)."""
    import numpy as np
    if rows.ndim != 2 or rows.shape[1] != N:
        raise ValueError(f"rows must be (n, {N}) bits, got shape {rows.shape}")
    fixed, n_errors = decode_words(_row_words(rows))
    return _word_rows(fixed), np.array(n_errors, dtype=np.int64)


def decode(received: np.ndarray) -> tuple[np.ndarray, int]:
    """Correct up to 3 bit errors of a (31,) bit array; return (codeword,
    number corrected).

    Raises DecodeFailure for a word with more than t errors and no
    codeword within distance t.  At most 3 positions are ever flipped.
    """
    import numpy as np
    fixed, n_errors = decode_rows(np.asarray(received)[None, :])
    if n_errors[0] < 0:
        raise DecodeFailure(f"more than t={T} errors")
    return fixed[0], int(n_errors[0])


def fe_enroll(response: np.ndarray, seed) -> tuple[np.ndarray, np.ndarray]:
    """Enroll a (31,) response: draw a uniform (16,) key and return it with
    the public offset encode(key) XOR response, which reveals at most the
    15 parity bits' worth of information about the response."""
    import numpy as np
    from .rng import ensure_rng
    if np.shape(response) != (N,):
        raise ValueError(f"response must be {N} bits, got shape {np.shape(response)}")
    key = ensure_rng(seed).integers(0, 2, size=K, dtype=np.uint8)
    return key, encode(key) ^ response


def fe_reproduce(response: np.ndarray, offset: np.ndarray) -> np.ndarray:
    """Recover the enrolled (16,) key from a noisy (31,) response (up to 3
    bit errors) and the offset fe_enroll returned."""
    import numpy as np
    if np.shape(response) != (N,):
        raise ValueError(f"response must be {N} bits, got shape {np.shape(response)}")
    codeword, _ = decode(response ^ offset)
    return codeword[:K]


# --- self-test ---------------------------------------------------------


def generator_matrix() -> np.ndarray:
    """Systematic generator matrix: row i encodes the i-th unit message."""
    return _word_rows([_encode_word(1 << (K - 1 - i)) for i in range(K)])


def selftest(random_error_trials: int = 10000, seed: int = 1) -> list[tuple[str, bool]]:
    """Battery of codec checks; returns (name, passed) per check."""
    import numpy as np
    from .rng import ensure_rng
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

    codewords = array("I", [0])  # all 2^16 as 32-bit words, by doubling over a basis
    for i in range(K):
        row = _encode_word(1 << i)
        codewords += array("I", (c ^ row for c in codewords))
    results.append(("minimum nonzero codeword weight == 7",
                    codewords[0] == 0 and min(map(int.bit_count, codewords[1:])) == 7))

    _, leaders = _decoder_tables(GENERATOR)
    patterns = [p for p in leaders if p >= 0]
    results.append(("coset-leader table holds 1+31+465+4495 distinct leaders of weight <= 3",
                    Counter(map(int.bit_count, patterns)) == Counter({0: 1, 1: 31, 2: 465,
                                                                      3: 4495})
                    and len(set(patterns)) == len(patterns)
                    and not any(decode_words(patterns)[0])))

    g = generator_matrix()
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
