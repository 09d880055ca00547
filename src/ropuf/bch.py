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

Every word is a Python int whose bit p is the coefficient of x^p: a
31-bit word's bits 15..30 are the 16 systematic message bits (message
bit i at x^(15+i)) and bits 0..14 the parity bits, and rotating the 31
bits left by one is multiplication by x modulo x^31 - 1.  Messages and
keys are 16-bit ints.  decode_words is the one decoder; decode is its
one-word form, and a key is reproduced as decode(response ^ offset)'s
message bits.  Nothing here imports numpy.
"""
from __future__ import annotations

import functools
from array import array
from collections import Counter
from itertools import combinations
from random import Random
from typing import TYPE_CHECKING

from .errors import DecodeFailure

if TYPE_CHECKING:
    from collections.abc import Iterable

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


def encode(message: int) -> int:
    """Codeword of a 16-bit message, systematic: message * x^15 plus its
    remainder modulo g, so bit 15 of the message is x^30."""
    if not 0 <= message < 1 << K:
        raise ValueError(f"message must be a {K}-bit int, got {message!r}")
    shifted = message << (N - K)
    return shifted | _gf2_mod(shifted, GENERATOR)


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


def decode(word: int) -> tuple[int, int]:
    """decode_words on one 31-bit word: (codeword, number of bits flipped).

    Raises DecodeFailure for a word with more than t errors and no
    codeword within distance t.  At most 3 bits are ever flipped.
    """
    if not 0 <= word < 1 << N:
        raise ValueError(f"word must be a {N}-bit int, got {word!r}")
    (fixed,), (flips,) = decode_words([word])
    if flips < 0:
        raise DecodeFailure(f"more than t={T} errors")
    return fixed, flips


def fe_enroll(response: int, seed: int) -> tuple[int, int]:
    """Enroll a 31-bit response: draw a uniform 16-bit key from seed and
    return it with the public offset encode(key) XOR response, which
    reveals at most the 15 parity bits' worth of information about the
    response."""
    if not 0 <= response < 1 << N:
        raise ValueError(f"response must be a {N}-bit int, got {response!r}")
    key = Random(seed).getrandbits(K)
    return key, encode(key) ^ response


# --- self-test ---------------------------------------------------------


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

    # All 2^16 codewords, by doubling over a basis: codewords[m] == encode(m).
    codewords = array("I", [0])
    for i in range(K):
        row = encode(1 << i)
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

    rnd = Random(seed)
    base = codewords[rnd.getrandbits(K)]
    noise = [1 << i | 1 << j for i in range(N) for j in range(i, N)]  # i == j: one error
    fixed, flips = decode_words([base ^ e for e in noise])
    results.append(("exhaustive 1- and 2-error correction",
                    fixed == [base] * len(noise) and flips == [e.bit_count() for e in noise]))

    try:  # every trial's message in one draw: too many trials fail before any runs
        messages = memoryview(rnd.randbytes(2 * random_error_trials)).cast("H")
    except OverflowError as exc:  # randbytes counts its bits in a C int
        raise MemoryError(f"cannot draw {random_error_trials} random messages") from exc
    sent = [codewords[m] for m in messages]
    fixed, flips = decode_words([c ^ sum(1 << p for p in rnd.sample(range(N), T)) for c in sent])
    results.append((f"{random_error_trials} random 3-error corrections",
                    fixed == sent and set(flips) <= {T}))

    sent = [codewords[m] for m in memoryview(rnd.randbytes(2 * 1000)).cast("H")]
    fixed, flips = decode_words(sent)
    results.append(("1000 zero-error decodes are identities",
                    fixed == sent and not any(flips)))
    return results
