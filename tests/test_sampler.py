from fractions import Fraction

import numpy as np
import pytest

from conftest import make_unit, word_of
from oracles import closed_form_word, event_walk_word, hex_word, hex_word_bits
from ropuf import ro, sampler
from ropuf.errors import ConfigurationError
from ropuf.sampler import ResponseWord

# Patterns for the two ratios of the waveform figure, frozen from the
# exact closed-form oracle (floor((2k+1)/rho) mod 2 on the float64 ratios).
PATTERN_1_1 = "0000011111100000"
PATTERN_1_2 = "0001110001110001"


class TestResponseWord:
    def test_hex_round_trip(self, rng):
        bits = rng.integers(0, 2, 32, dtype=np.uint8)
        w = ResponseWord(bits)
        assert ResponseWord.from_hex(w.to_hex(), 32) == w

    def test_hex_is_msb_first(self):
        w = word_of([1] + [0] * 15)
        assert w.to_hex() == "8000"

    def test_xor_and_hash(self):
        a, b = word_of([1, 0, 1, 0]), word_of([1, 1, 0, 0])
        assert (a ^ b) == word_of([0, 1, 1, 0])
        assert hash(a) == hash(word_of([1, 0, 1, 0]))

    def test_immutable(self):
        w = word_of([1, 0])
        with pytest.raises(ValueError):
            w.bits[0] = 0


class TestHexCodec:
    LENGTHS = range(1, 41)  # every digit width to 10, partial top nibbles included

    @pytest.mark.parametrize("length", LENGTHS)
    def test_agrees_with_int_oracle_and_round_trips(self, rng, length):
        rows = rng.integers(0, 2, (12, length), dtype=np.uint8)
        rows[0], rows[1] = 0, 1
        words = sampler.rows_to_hex(rows)
        assert words == [hex_word(r) for r in rows]
        assert all(len(w) == -(-length // 4) for w in words)
        back = sampler.hex_to_rows(words, length)
        assert back.shape == rows.shape and np.array_equal(back, rows)
        upper = sampler.hex_to_rows([w.upper() for w in words], length)
        assert upper.tolist() == [hex_word_bits(w, length) for w in words]

    @pytest.mark.parametrize("length", [n for n in LENGTHS if n % 4])
    def test_one_bit_too_wide_rejected(self, length):
        word = format(1 << length, f"0{-(-length // 4)}x")  # bit L set, same digit count
        with pytest.raises(ValueError):
            sampler.hex_to_rows([word], length)

    @pytest.mark.parametrize("word", ["0xff", " fff", "fff ", "f_ff", "+fff", "fff", "fffff",
                                      "ff.f", "    ", "fffé"])
    def test_exact_width_hex_digits_only(self, word):
        with pytest.raises(ValueError):
            sampler.hex_to_rows(["0000", word], 16)


class TestClosedFormAgreement:
    def test_dense_random_grid(self):
        rng = np.random.default_rng(42)
        for _ in range(2000):
            rho = float(rng.uniform(0.5, 2.0))
            unit = make_unit(rho * 2.0 ** -30, 2.0 ** -30)
            got = list(sampler.sample_word(unit, 1.3, 0).bits)
            assert got == closed_form_word(16, rho), rho

    @pytest.mark.parametrize("p,q", [(3, 2), (5, 4), (7, 4), (4, 3), (5, 3),
                                     (3, 4), (11, 10), (6, 5), (31, 16), (16, 31)])
    def test_exact_rationals_with_ties(self, p, q):
        # integer-scaled periods make every comparison exact in float64
        unit = make_unit(p * 2.0 ** -34, q * 2.0 ** -34)
        got = list(sampler.sample_word(unit, 1.3, 0).bits)
        assert got == closed_form_word(16, Fraction(p, q))

    def test_event_walk_oracle_agrees(self):
        rng = np.random.default_rng(7)
        ratios = [float(rng.uniform(0.5, 2.0)) for _ in range(200)]
        ratios += [1.5, 1.25, 1.1, 1.2, 2.0, 0.75]
        for rho in ratios:
            t1, t2 = rho * 2.0 ** -30, 2.0 ** -30
            walked = event_walk_word(t1, t2, 16)
            assert walked == closed_form_word(16, Fraction(t1) / Fraction(t2))
            assert walked == list(sampler.sample_word(make_unit(t1, t2), 1.3, 0).bits)

    def test_equal_periods_all_zero(self):
        # every sample lands exactly on a toggle instant; pre-toggle value is 0
        w = sampler.sample_word(make_unit(1e-9, 1e-9), 1.3, 0)
        assert w.to_int() == 0

    def test_initial_bit_law(self):
        rng = np.random.default_rng(3)
        for _ in range(500):
            rho = float(rng.uniform(1.0 + 1e-9, 2.0 - 1e-9))
            assert sampler.sample_word(make_unit(rho * 1e-9, 1e-9), 1.3, 0).bits[0] == 0
            rho = float(rng.uniform(0.5 + 1e-9, 1.0 - 1e-9))
            assert sampler.sample_word(make_unit(rho * 1e-9, 1e-9), 1.3, 0).bits[0] == 1

    def test_waveform_figure_patterns(self):
        w11 = sampler.sample_word(make_unit(1.1 * 2.0 ** -30, 2.0 ** -30), 1.3, 0)
        w12 = sampler.sample_word(make_unit(1.2 * 2.0 ** -30, 2.0 ** -30), 1.3, 0)
        assert "".join(map(str, w11.bits)) == PATTERN_1_1
        assert "".join(map(str, w12.bits)) == PATTERN_1_2
        assert w11 != w12

    def test_scale_invariance(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            rho = float(rng.uniform(0.5, 2.0))
            scale = float(rng.uniform(1e-10, 1e-6))
            a = sampler.sample_word(make_unit(rho * 1e-9, 1e-9), 1.3, 0)
            b = sampler.sample_word(make_unit(rho * scale, scale), 1.3, 0)
            assert a == b


class TestCoupledSampling:
    def test_inverter_loop_constant_word_under_jitter(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            t1 = float(rng.uniform(0.8e-9, 1.2e-9))
            t2 = float(rng.uniform(0.8e-9, 1.2e-9))
            unit = make_unit(t1, t2, ro.Coupling.inverter_loop(), jitter=0.03)
            w = sampler.sample_word(unit, 1.3, int(rng.integers(1 << 31)))
            assert w.to_int() == 0

    def test_capacitive_jitter_determinism(self):
        unit = make_unit(1.07e-9, 0.95e-9, ro.Coupling.capacitive(0.5), jitter=0.001)
        assert sampler.sample_word(unit, 1.3, 99) == sampler.sample_word(unit, 1.3, 99)

    def test_capacitive_pulls_ratio_toward_one(self):
        # strong pulling turns a distinct pattern into the near-locked one
        loose = make_unit(1.2e-9, 1.0e-9)
        tight = make_unit(1.2e-9, 1.0e-9, ro.Coupling.capacitive(0.95))
        w_loose = sampler.sample_word(loose, 1.3, 0)
        w_tight = sampler.sample_word(tight, 1.3, 0)
        assert w_tight.bits.sum() < w_loose.bits.sum()


class TestEnroll:
    def test_noiseless_idempotent(self):
        unit = make_unit(1.13e-9, 1.0e-9)
        for reps in (1, 3, 99):
            assert sampler.enroll_id(unit, reps, 1.3, 17) == sampler.sample_word(unit, 1.3, 0)

    @staticmethod
    def _block(monkeypatch, words):
        # enroll_id takes the modal row of one block of sample_rows
        rows = np.array([w.bits for w in words])
        monkeypatch.setattr(sampler, "sample_rows", lambda unit, v, g1, g2, ext: rows)

    def test_strict_majority_of_whole_words(self, monkeypatch):
        self._block(monkeypatch, [word_of([0, 0, 1]), word_of([0, 0, 1]), word_of([1, 1, 1])])
        unit = make_unit(1e-9, 1e-9)
        assert sampler.enroll_id(unit, 3, 1.3, 0) == word_of([0, 0, 1])

    def test_modal_tie_falls_back_to_bitwise_majority(self, monkeypatch):
        self._block(monkeypatch, [word_of([1, 1, 0]), word_of([1, 0, 1]),
                                  word_of([0, 1, 1]), word_of([1, 1, 1])])
        unit = make_unit(1e-9, 1e-9)
        # all four words tie at count 1 -> per-bit majority is 1,1,1
        assert sampler.enroll_id(unit, 4, 1.3, 0) == word_of([1, 1, 1])

    def test_per_bit_tie_resolves_to_zero(self, monkeypatch):
        self._block(monkeypatch, [word_of([1, 0]), word_of([0, 1])])
        unit = make_unit(1e-9, 1e-9)
        assert sampler.enroll_id(unit, 2, 1.3, 0) == word_of([0, 0])

    def test_matches_noiseless_word_away_from_flip_boundaries(self):
        # moderate jitter still enrolls the noiseless pattern for ratios
        # that keep every sample clear of a toggle boundary; jitter
        # accumulates over 2k+1 half-periods, so the required margin
        # grows with the bit index
        rng = np.random.default_rng(23)
        jitter = 0.002
        checked = 0
        for _ in range(200):
            rho = float(rng.uniform(0.52, 1.95))
            clear = all(
                abs((2 * k + 1) / rho - round((2 * k + 1) / rho))
                > 5.0 * jitter * (2 * (2 * k + 1)) ** 0.5
                for k in range(16))
            if not clear:
                continue
            checked += 1
            noiseless = sampler.sample_word(make_unit(rho * 1e-9, 1e-9), 1.3, 0)
            noisy_unit = make_unit(rho * 1e-9, 1e-9, jitter=jitter)
            enrolled = sampler.enroll_id(noisy_unit, 99, 1.3, int(rng.integers(1 << 31)))
            assert enrolled == noiseless, rho
        assert checked > 10

    def test_deterministic(self):
        unit = make_unit(1.1e-9, 1.0e-9, jitter=0.005)
        assert sampler.enroll_id(unit, 21, 1.3, 4) == sampler.enroll_id(unit, 21, 1.3, 4)

    def test_bad_repetitions(self):
        with pytest.raises(ConfigurationError):
            sampler.enroll_id(make_unit(1e-9, 1e-9), 0, 1.3, 0)


class TestCompose:
    def test_concatenation(self, rng):
        w1 = ResponseWord(rng.integers(0, 2, 16, dtype=np.uint8))
        w2 = ResponseWord(rng.integers(0, 2, 16, dtype=np.uint8))
        combined = sampler.compose_id([w1, w2])
        assert len(combined) == 32
        assert np.array_equal(combined.bits[:16], w1.bits)
        assert np.array_equal(combined.bits[16:], w2.bits)

    def test_single_word_identity(self, rng):
        w = ResponseWord(rng.integers(0, 2, 16, dtype=np.uint8))
        assert sampler.compose_id([w]) == w

    def test_eight_by_four(self, rng):
        words = [ResponseWord(rng.integers(0, 2, 4, dtype=np.uint8)) for _ in range(8)]
        combined = sampler.compose_id(words)
        assert len(combined) == 32
        assert np.array_equal(combined.bits, np.concatenate([w.bits for w in words]))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            sampler.compose_id([])
