import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import GF_EXP, bch_decode, gf_mul
from ropuf import bch
from ropuf.errors import DecodeFailure
from ropuf.sampler import pack_rows

# g(x) = 1 + x + x^2 + x^3 + x^5 + x^7 + x^8 + x^9 + x^10 + x^11 + x^15,
# frozen from the minimal-polynomial construction and cross-checked below
# by evaluating it at alpha^1..alpha^6.
GENERATOR_COEFFS = [1, 1, 1, 1, 0, 1, 0, 1, 1, 1, 1, 1, 0, 0, 0, 1]


def rand_message(rng) -> np.ndarray:
    return rng.integers(0, 2, bch.K, dtype=np.uint8)


def message_of(value: int) -> np.ndarray:
    """The 16 bits of value, most significant first (bit 0 is x^30 once encoded)."""
    return ((value >> np.arange(bch.K - 1, -1, -1)) & 1).astype(np.uint8)


def generator_coefficients() -> list[int]:
    """Coefficients of g(x), ascending degree (length 16)."""
    return [(bch.GENERATOR >> i) & 1 for i in range(bch.N - bch.K + 1)]


def assert_decodes(received: np.ndarray, codeword: np.ndarray, n_errors: int) -> None:
    fixed, nerr = bch.decode(received)
    assert np.array_equal(fixed, codeword) and nerr == n_errors


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
        cw = bch.encode(np.zeros(bch.K, dtype=np.uint8))
        assert not cw.any()

    def test_systematic_layout(self, rng):
        m = rand_message(rng)
        cw = bch.encode(m)
        assert np.array_equal(cw[:16], m)

    @given(st.integers(0, 2 ** 16 - 1), st.integers(0, 2 ** 16 - 1))
    def test_linearity(self, a, b):
        wa, wb = message_of(a), message_of(b)
        assert np.array_equal(bch.encode(wa) ^ bch.encode(wb), bch.encode(wa ^ wb))

    def test_cyclic_shift_is_codeword(self, rng):
        for _ in range(50):
            cw = bch.encode(rand_message(rng))
            rotated = np.roll(cw, 1)
            fixed, nerr = bch.decode(rotated)
            assert nerr == 0 and np.array_equal(fixed, rotated)

    def test_minimum_weight_exhaustive(self):
        g = bch.generator_matrix()
        msgs = ((np.arange(1 << 16)[:, None] >> np.arange(15, -1, -1)) & 1).astype(np.uint8)
        weights = ((msgs @ g) % 2).sum(axis=1)
        assert int(weights[0]) == 0
        assert int(weights[1:].min()) == 7

    def test_matrix_matches_encode(self, rng):
        g = bch.generator_matrix()
        for _ in range(20):
            m = rand_message(rng)
            assert np.array_equal((m @ g) % 2, bch.encode(m))

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            bch.encode(np.zeros(15, dtype=np.uint8))


class TestDecode:
    def test_valid_codeword_identity(self, rng):
        for _ in range(100):
            cw = bch.encode(rand_message(rng))
            assert_decodes(cw, cw, 0)

    def test_all_one_and_two_error_patterns(self, rng):
        cw = bch.encode(rand_message(rng))
        for i in range(31):
            noisy = cw.copy()
            noisy[i] ^= 1
            assert_decodes(noisy, cw, 1)
        for i, j in itertools.combinations(range(31), 2):
            noisy = cw.copy()
            noisy[[i, j]] ^= 1
            assert_decodes(noisy, cw, 2)

    def test_random_three_error_patterns(self, rng):
        for _ in range(2000):
            cw = bch.encode(rand_message(rng))
            noisy = cw.copy()
            noisy[rng.choice(31, size=3, replace=False)] ^= 1
            assert_decodes(noisy, cw, 3)

    def test_four_errors_never_silently_absorbed(self, rng):
        zero = np.zeros(31, dtype=np.uint8)
        for _ in range(500):
            noisy = zero.copy()
            noisy[rng.choice(31, size=4, replace=False)] ^= 1
            try:
                fixed, nerr = bch.decode(noisy)
            except DecodeFailure:
                continue
            # a miscorrection must be a nonzero codeword within distance 3
            assert not np.array_equal(fixed, zero)
            assert nerr <= 3
            assert int(np.count_nonzero(fixed != noisy)) <= 3

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            bch.decode(np.zeros(30, dtype=np.uint8))


class TestDecodeRowsOracle:
    """decode_rows against the Berlekamp-Massey/Chien decoder in oracles."""

    @staticmethod
    def check_oracle(rows):
        """Assert row-by-row agreement; return the number of failed rows."""
        fixed, n_errors = bch.decode_rows(rows)
        failures = 0
        for row, got, n in zip(rows.tolist(), fixed.tolist(), n_errors.tolist()):
            want = bch_decode(row)
            if want is None:
                failures += 1
                assert (got, n) == (row, -1)
            else:
                assert (got, n) == want
        return failures

    def test_every_pattern_up_to_weight_3(self, rng):
        patterns = [p for w in range(4) for p in itertools.combinations(range(31), w)]
        assert len(patterns) == 1 + 31 + 465 + 4495
        noise = np.zeros((len(patterns), 31), dtype=np.uint8)
        for k, p in enumerate(patterns):
            noise[k, list(p)] = 1
        for _ in range(3):
            cw = bch.encode(rand_message(rng))
            rows = cw ^ noise
            assert self.check_oracle(rows) == 0
            assert (bch.decode_rows(rows)[0] == cw).all()

    def test_random_weight_4_to_8(self, rng):
        n = 20_000
        codewords = (rng.integers(0, 2, (n, bch.K), dtype=np.uint8) @ bch.generator_matrix()) % 2
        weights = rng.integers(4, 9, n)
        noise = (np.argsort(rng.random((n, 31)), axis=1) < weights[:, None]).astype(np.uint8)
        failures = self.check_oracle(codewords ^ noise)
        assert 0 < failures < n  # both failures and miscorrections occur


class TestDecodeWordsOracle:
    """decode_words on bits 0..30 of packed rows, against the oracle."""

    @pytest.mark.parametrize("length", [*range(31, 41), 64, 70])  # every pad offset
    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1))
    def test_protected_bits_of_packed_rows(self, length, seed):
        rng = np.random.default_rng(seed)
        n = 270
        codewords = (rng.integers(0, 2, (n, bch.K), dtype=np.uint8) @ bch.generator_matrix()) % 2
        noise = np.argsort(rng.random((n, 31)), axis=1) < (np.arange(n) % 9)[:, None]
        rows = rng.integers(0, 2, (n, length), dtype=np.uint8)  # bits past 30 ride along
        rows[:, :31] = codewords ^ noise
        fixed, n_errors = bch.decode_words(bch.packed_words(pack_rows(rows), length))
        got = (fixed[:, None] >> np.arange(30, -1, -1, dtype=np.uint64)) & 1  # bit 0 is x^30
        failures = miscorrections = 0
        for row, cw, bits, k in zip(rows[:, :31].tolist(), codewords.tolist(), got.tolist(),
                                    n_errors.tolist()):
            want = bch_decode(row)
            if want is None:
                failures += 1
                assert (bits, k) == (row, -1)
            else:
                assert (bits, k) == want
                miscorrections += want[0] != cw
        assert failures > 0 and miscorrections > 0


class TestFuzzyExtractor:
    def test_noiseless_round_trip(self, rng):
        response = rng.integers(0, 2, 31, dtype=np.uint8)
        key, offset = bch.fe_enroll(response, 42)
        assert np.array_equal(bch.fe_reproduce(response, offset), key)

    def test_key_recovered_iff_within_three_errors(self, rng):
        response = rng.integers(0, 2, 31, dtype=np.uint8)
        key, offset = bch.fe_enroll(response, 7)
        for weight in range(8):
            for _ in range(40):
                noisy = response.copy()
                if weight:
                    noisy[rng.choice(31, size=weight, replace=False)] ^= 1
                try:
                    recovered = bch.fe_reproduce(noisy, offset)
                except DecodeFailure:
                    recovered = None
                if weight <= 3:
                    assert np.array_equal(recovered, key)
                else:
                    assert recovered is None or not np.array_equal(recovered, key)

    def test_seven_flips_along_codeword_switch_key(self, rng):
        # flipping a weight-7 codeword's support lands on another codeword
        response = rng.integers(0, 2, 31, dtype=np.uint8)
        key, offset = bch.fe_enroll(response, 3)
        g = bch.generator_matrix()
        weights = ((((np.arange(1, 1 << 16)[:, None] >> np.arange(15, -1, -1)) & 1)
                    .astype(np.uint8) @ g) % 2).sum(axis=1)
        m = int(np.flatnonzero(weights == 7)[0]) + 1
        light = bch.encode(message_of(m))
        shifted = response ^ light
        recovered = bch.fe_reproduce(shifted, offset)
        assert np.array_equal(recovered, key ^ light[:16])
        assert not np.array_equal(recovered, key)

    def test_correct_response_round_trip(self, rng):
        response = rng.integers(0, 2, 31, dtype=np.uint8)
        _, offset = bch.fe_enroll(response, 9)
        noisy = response.copy()
        noisy[[0, 13, 30]] ^= 1
        fixed, n_errors = bch.decode_rows(noisy[None, :] ^ offset)
        assert n_errors.tolist() == [3]
        assert np.array_equal(fixed[0] ^ offset, response)


class TestSelftest:
    def test_all_checks_pass(self):
        results = bch.selftest(random_error_trials=300)
        assert all(ok for _, ok in results), results

    def test_tampered_generator_fails_distance_check(self, monkeypatch):
        monkeypatch.setattr(bch, "GENERATOR", bch.GENERATOR ^ 0b10)
        results = dict(bch.selftest(random_error_trials=10))
        assert not results["minimum nonzero codeword weight == 7"]
