import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import (GF_EXP, bch_decode, bits_word, codebook, error_word, fe_reproduce,
                     generator_rows, gf_mul, pack_rows, table_decode, word_bits)
from ropuf import bch, metrics
from ropuf.errors import DatasetError, DecodeFailure

# g(x) = 1 + x + x^2 + x^3 + x^5 + x^7 + x^8 + x^9 + x^10 + x^11 + x^15,
# frozen from the minimal-polynomial construction and cross-checked below
# by evaluating it at alpha^1..alpha^6.
GENERATOR_COEFFS = [1, 1, 1, 1, 0, 1, 0, 1, 1, 1, 1, 1, 0, 0, 0, 1]


def rand_message(rng) -> int:
    return int(rng.integers(0, 1 << bch.K))


def rand_codewords(rng, n: int) -> list[int]:
    """n random codewords, from the same draws as n random message bit rows."""
    return [bch.encode(bits_word(m)) for m in rng.integers(0, 2, (n, bch.K), dtype=np.uint8)]


def generator_coefficients() -> list[int]:
    """Coefficients of g(x), ascending degree (length 16)."""
    return [(bch.GENERATOR >> i) & 1 for i in range(bch.N - bch.K + 1)]


def assert_decodes(received: int, codeword: int, n_errors: int) -> None:
    assert bch.decode(received) == (codeword, n_errors)


class TestField:
    """bch multiplies field elements as GF(2) polynomials reduced modulo
    x^5 + x^2 + 1; the oracle multiplies through exp/log tables."""

    def test_multiply_matches_exp_log_oracle_exhaustive(self):
        for a, b in itertools.product(range(32), repeat=2):
            assert bch._gf_mul(a, b) == gf_mul(a, b), (a, b)

    def test_alpha_has_order_31(self):
        seen = set()
        x = 1
        for _ in range(31):
            seen.add(x)
            x = bch._gf_mul(x, 2)  # alpha is the class of x, value 2
        assert x == 1 and len(seen) == 31

    def test_commutativity_exhaustive(self):
        for a in range(32):
            for b in range(32):
                assert bch._gf_mul(a, b) == bch._gf_mul(b, a)

    def test_associativity_exhaustive(self):
        for a, b, c in itertools.product(range(32), repeat=3):
            assert bch._gf_mul(bch._gf_mul(a, b), c) == bch._gf_mul(a, bch._gf_mul(b, c))

    def test_distributivity_exhaustive(self):
        for a, b, c in itertools.product(range(32), repeat=3):
            assert bch._gf_mul(a, b ^ c) == bch._gf_mul(a, b) ^ bch._gf_mul(a, c)


class TestGenerator:
    def test_degree_and_message_length(self):
        assert bch.GENERATOR.bit_length() - 1 == 15
        assert bch.N - 15 == bch.K == 16

    def test_frozen_coefficients(self):
        assert generator_coefficients() == GENERATOR_COEFFS

    def test_roots_at_alpha_1_through_6(self):
        for i in range(1, 7):  # evaluated in the oracle's exp/log field
            elem = GF_EXP[i]
            acc, xp = 0, 1
            for coeff in generator_coefficients():
                if coeff:
                    acc ^= xp
                xp = gf_mul(xp, elem)
            assert acc == 0, i

    def test_divides_x31_plus_1(self):
        assert bch._gf2_mod((1 << 31) | 1, bch.GENERATOR) == 0


class TestEncode:
    def test_zero_message_zero_codeword(self):
        assert bch.encode(0) == 0

    def test_systematic_layout(self, rng):
        m = rand_message(rng)
        assert bch.encode(m) >> 15 == m

    @given(st.integers(0, 2 ** 16 - 1), st.integers(0, 2 ** 16 - 1))
    def test_linearity(self, a, b):
        assert bch.encode(a) ^ bch.encode(b) == bch.encode(a ^ b)

    def test_cyclic_shift_is_codeword(self, rng):
        for _ in range(50):
            cw = bch.encode(rand_message(rng))
            rotated = cw >> 1 | (cw & 1) << 30  # division by x modulo x^31 - 1
            assert_decodes(rotated, rotated, 0)

    def test_minimum_weight_exhaustive(self):
        weights = [bch.encode(m).bit_count() for m in range(1 << 16)]
        assert weights[0] == 0
        assert min(weights[1:]) == 7

    def test_matrix_matches_encode(self):
        want = codebook(generator_rows(bch.GENERATOR))
        assert [bch.encode(m) for m in range(1 << 16)] == want

    def test_wrong_length_rejected(self):
        for message in [-1, 1 << 16]:
            with pytest.raises(ValueError, match="16-bit"):
                bch.encode(message)


class TestDecode:
    def test_valid_codeword_identity(self, rng):
        for _ in range(100):
            cw = bch.encode(rand_message(rng))
            assert_decodes(cw, cw, 0)

    def test_all_one_and_two_error_patterns(self, rng):
        cw = bch.encode(rand_message(rng))
        for i in range(31):
            assert_decodes(cw ^ 1 << i, cw, 1)
        for i, j in itertools.combinations(range(31), 2):
            assert_decodes(cw ^ 1 << i ^ 1 << j, cw, 2)

    def test_random_three_error_patterns(self, rng):
        for _ in range(2000):
            cw = bch.encode(rand_message(rng))
            assert_decodes(cw ^ error_word(rng.choice(31, size=3, replace=False)), cw, 3)

    def test_four_errors_never_silently_absorbed(self, rng):
        for _ in range(500):
            noisy = error_word(rng.choice(31, size=4, replace=False))
            try:
                fixed, nerr = bch.decode(noisy)
            except DecodeFailure:
                continue
            # a miscorrection must be a nonzero codeword within distance 3
            assert fixed != 0
            assert nerr <= 3
            assert (fixed ^ noisy).bit_count() <= 3

    def test_wrong_length_rejected(self):
        for word in [-1, 1 << 31]:
            with pytest.raises(ValueError, match="31-bit"):
                bch.decode(word)


class TestDecodeWordsOracle:
    """decode_words on bits 0..30 of packed rows, against the oracle."""

    @pytest.mark.parametrize("length", [*range(31, 41), 64, 70])  # every pad offset
    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1))
    def test_protected_bits_of_packed_rows(self, length, seed):
        rng = np.random.default_rng(seed)
        n = 270
        codewords = np.array([word_bits(c) for c in rand_codewords(rng, n)], dtype=np.uint8)
        noise = np.argsort(rng.random((n, 31)), axis=1) < (np.arange(n) % 9)[:, None]
        rows = rng.integers(0, 2, (n, length), dtype=np.uint8)  # bits past 30 ride along
        rows[:, :31] = codewords ^ noise
        packed = pack_rows(rows)
        # Zero pad bits, then bit 0 most significant: bits 0..30 are the top 31 of length.
        words = [int.from_bytes(r.tobytes(), "big") >> (length - 31) for r in packed]
        fixed, n_errors = bch.decode_words(words)
        zero = bytes(packed.shape[1])  # a zero anchor leaves the decoded words as they are
        assert metrics.corrected_sample_words(packed.tobytes(), zero, length) == fixed
        got = [word_bits(f) for f in fixed]
        failures = miscorrections = 0
        for row, cw, bits, k in zip(rows[:, :31].tolist(), codewords.tolist(), got, n_errors):
            want = bch_decode(row)
            if want is None:
                failures += 1
                assert (bits, k) == (row, -1)
            else:
                assert (bits, k) == want
                miscorrections += want[0] != cw
        assert failures > 0 and miscorrections > 0

    def test_short_id_is_a_data_error(self):
        with pytest.raises(DatasetError, match="^ID shorter than the 31-bit code$"):
            metrics.corrected_sample_words(bytes(4 * 3), bytes(4), 30)


class TestDecodeWordsTableOracle:
    """decode_words, on ints, against the numpy table decoder it replaced
    and against the Berlekamp-Massey/Chien decoder."""

    @staticmethod
    def check_oracles(words: list[int], bm_every: int = 1) -> tuple[int, int]:
        """Assert agreement word by word (Berlekamp-Massey on every
        bm_every-th word); return the failures and the nonzero corrections."""
        fixed, n_errors = bch.decode_words(words)
        assert (fixed, n_errors) == table_decode(words, bch.GENERATOR)
        for word, got, n in list(zip(words, fixed, n_errors))[::bm_every]:
            want = bch_decode(word_bits(word))
            assert (got, n) == ((word, -1) if want is None else (bits_word(want[0]), want[1]))
        return n_errors.count(-1), sum(n > 0 for n in n_errors)

    def test_every_pattern_up_to_weight_3(self, rng):
        patterns = [sum(1 << p for p in positions)
                    for w in range(4) for positions in itertools.combinations(range(31), w)]
        assert len(patterns) == 1 + 31 + 465 + 4495
        for _ in range(3):
            cw = bch.encode(rand_message(rng))
            words = [cw ^ e for e in patterns]
            assert self.check_oracles(words) == (0, len(patterns) - 1)
            assert bch.decode_words(words)[0] == [cw] * len(patterns)

    def test_random_weight_4_and_more(self, rng):
        n = 20_000
        codewords = np.array([word_bits(c) for c in rand_codewords(rng, n)], dtype=np.uint8)
        weights = rng.integers(4, 16, n)
        noise = np.argsort(rng.random((n, 31)), axis=1) < weights[:, None]
        words = [bits_word(row) for row in codewords ^ noise]
        failures, corrections = self.check_oracles(words, bm_every=10)
        assert 0 < failures < n and corrections > 0  # failures and miscorrections both occur


class TestFuzzyExtractor:
    def test_noiseless_round_trip(self, rng):
        response = int(rng.integers(0, 1 << 31))
        key, offset = bch.fe_enroll(response, 42)
        assert 0 <= key < 1 << 16
        assert fe_reproduce(bch.decode, response, offset) == key

    def test_key_recovered_iff_within_three_errors(self, rng):
        response = int(rng.integers(0, 1 << 31))
        key, offset = bch.fe_enroll(response, 7)
        for weight in range(8):
            for _ in range(40):
                noisy = response ^ error_word(rng.choice(31, size=weight, replace=False))
                try:
                    recovered = fe_reproduce(bch.decode, noisy, offset)
                except DecodeFailure:
                    recovered = None
                if weight <= 3:
                    assert recovered == key
                else:
                    assert recovered != key

    def test_seven_flips_along_codeword_switch_key(self, rng):
        # flipping a weight-7 codeword's support lands on another codeword
        response = int(rng.integers(0, 1 << 31))
        key, offset = bch.fe_enroll(response, 3)
        light = next(c for c in map(bch.encode, range(1, 1 << 16)) if c.bit_count() == 7)
        recovered = fe_reproduce(bch.decode, response ^ light, offset)
        assert recovered == key ^ light >> 15
        assert recovered != key

    def test_correct_response_round_trip(self, rng):
        response = int(rng.integers(0, 1 << 31))
        _, offset = bch.fe_enroll(response, 9)
        fixed, n_errors = bch.decode(response ^ error_word([0, 13, 30]) ^ offset)
        assert n_errors == 3
        assert fixed ^ offset == response

    def test_key_depends_on_seed_only(self):
        key, _ = bch.fe_enroll(0, 5)
        assert bch.fe_enroll((1 << 31) - 1, 5)[0] == key
        assert bch.fe_enroll(0, 6)[0] != key

    def test_response_out_of_range_rejected(self):
        for response in [-1, 1 << 31]:
            with pytest.raises(ValueError, match="31-bit"):
                bch.fe_enroll(response, 1)


class TestSelftest:
    def test_all_checks_pass(self):
        results = bch.selftest(random_error_trials=300)
        assert all(ok for _, ok in results), results

    def test_tampered_generator_fails_distance_check(self, monkeypatch):
        bch._decoder_tables()  # cached from the true generator before it is tampered
        monkeypatch.setattr(bch, "GENERATOR", bch.GENERATOR ^ 0b10)
        results = dict(bch.selftest(random_error_trials=10))
        assert not results["minimum nonzero codeword weight == 7"]
