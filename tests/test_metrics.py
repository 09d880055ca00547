import itertools
import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from oracles import bits_word, reliability_formula, uniformity_formula, uniqueness_formula
from ropuf import metrics

bits_lists = st.lists(st.integers(0, 1), min_size=1, max_size=24)


def words_strategy(length, n):
    return st.lists(
        st.lists(st.integers(0, 1), min_size=length, max_size=length),
        min_size=n, max_size=n)


def hamming(a: int, b: int) -> int:
    """Hamming distance of two words, as the pairwise kernel behind
    uniqueness and the inter-chip histogram counts it."""
    return list(metrics._pair_distances([a, b]))[0]


class TestHamming:
    def test_identity(self):
        w = bits_word([1, 0, 1, 1])
        assert hamming(w, w) == 0

    def test_complement(self):
        assert hamming(bits_word([0, 0, 0, 0]), bits_word([1, 1, 1, 1])) == 4

    def test_alternating_complement(self):
        a = bits_word([1, 0] * 8)
        b = bits_word([0, 1] * 8)
        assert hamming(a, b) == 16

    @given(bits_lists, bits_lists, bits_lists)
    def test_metric_axioms(self, a, b, c):
        n = min(len(a), len(b), len(c))
        wa, wb, wc = bits_word(a[:n]), bits_word(b[:n]), bits_word(c[:n])
        assert hamming(wa, wb) == hamming(wb, wa)
        assert (hamming(wa, wb) == 0) == (a[:n] == b[:n])
        assert hamming(wa, wc) <= hamming(wa, wb) + hamming(wb, wc)
        assert list(metrics._pair_distances([wa, wb, wc])) == [
            hamming(wa, wb), hamming(wa, wc), hamming(wb, wc)]


class TestUniqueness:
    def test_identical_pair_is_zero(self):
        w = bits_word([1, 0, 1, 0])
        assert metrics.uniqueness([w, w], 4) == 0.0

    def test_full_distance_pair(self):
        assert metrics.uniqueness([bits_word([0] * 4), bits_word([1] * 4)], 4) == 100.0

    def test_three_chip_hand_value(self):
        refs = [bits_word([0, 0, 0, 0]), bits_word([0, 0, 1, 1]), bits_word([1, 1, 1, 1])]
        # pairwise distances 2, 4, 2 -> (2+4+2)/3/4*100
        assert metrics.uniqueness(refs, 4) == pytest.approx(200.0 / 3.0, rel=1e-12)

    def test_needs_two(self):
        with pytest.raises(ValueError):
            metrics.uniqueness([bits_word([1, 0])], 2)

    @given(words_strategy(6, 4), st.permutations(range(4)))
    def test_invariant_under_chip_permutation(self, words, perm):
        refs = [bits_word(w) for w in words]
        shuffled = [refs[i] for i in perm]
        assert metrics.uniqueness(refs, 6) == pytest.approx(
            metrics.uniqueness(shuffled, 6), rel=1e-12)

    @given(words_strategy(6, 3), st.permutations(range(6)))
    def test_invariant_under_bit_permutation(self, words, perm):
        refs = [bits_word(w) for w in words]
        permuted = [bits_word([w[i] for i in perm]) for w in words]
        assert metrics.uniqueness(refs, 6) == pytest.approx(
            metrics.uniqueness(permuted, 6), rel=1e-12)


class TestReliability:
    def test_perfect(self):
        w = bits_word([1, 0, 1, 0])
        assert metrics.reliability(w, [w, w, w], 4) == 100.0

    def test_single_flip_of_sixteen(self):
        ref = bits_word([0] * 16)
        sample = bits_word([1] + [0] * 15)
        assert metrics.reliability(ref, [sample], 16) == pytest.approx(93.75)

    def test_hand_value(self):
        ref = bits_word([0, 0, 0, 0])
        samples = [bits_word([1, 0, 0, 0]), bits_word([1, 1, 1, 0])]
        assert metrics.reliability(ref, samples, 4) == pytest.approx(50.0)

    def test_hundred_iff_all_equal(self):
        ref = bits_word([1, 0])
        assert metrics.reliability(ref, [ref, bits_word([1, 1])], 2) < 100.0

    def test_needs_samples(self):
        with pytest.raises(ValueError):
            metrics.reliability(bits_word([1]), [], 1)


class TestUniformity:
    def test_all_zero(self):
        assert metrics.uniformity([bits_word([0] * 8)], 8) == 0.0

    def test_alternating(self):
        w = bits_word([1, 0] * 8)  # hex word aaaa
        assert metrics.uniformity([w], 16) == 50.0

    def test_hand_average(self):
        ws = [bits_word([1, 1, 0, 0]), bits_word([1, 1, 1, 0])]
        assert metrics.uniformity(ws, 4) == pytest.approx(62.5)

    def test_needs_responses(self):
        with pytest.raises(ValueError):
            metrics.uniformity([], 8)

    @given(words_strategy(8, 3))
    def test_complement_relation(self, words):
        ws = [bits_word(w) for w in words]
        comp = [bits_word([1 - b for b in w]) for w in words]
        assert metrics.uniformity(comp, 8) == pytest.approx(
            100.0 - metrics.uniformity(ws, 8), abs=1e-9)


class TestFormulaOracle:
    """Each percentage is one division of integer counts, so it equals the
    Fraction-exact formula rounded once, to the last bit."""

    def test_random_small_instances(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 6))
            length = int(rng.integers(1, 9))
            t = int(rng.integers(1, 5))
            refs = [[int(b) for b in rng.integers(0, 2, length)] for _ in range(n)]
            samples = [[int(b) for b in rng.integers(0, 2, length)] for _ in range(t)]
            assert metrics.uniqueness([bits_word(r) for r in refs], length) == \
                uniqueness_formula(refs, length)
            assert metrics.reliability(bits_word(refs[0]), [bits_word(s) for s in samples],
                                       length) == reliability_formula(refs[0], samples, length, t)
            assert metrics.uniformity([bits_word(s) for s in samples], length) == \
                uniformity_formula(samples, length)

    def test_words_of_every_width_up_to_64_bits(self):
        """Reports score 32-bit raw IDs and 31-bit post-BCH words; every
        width from 1 to 64 bits."""
        rng = np.random.default_rng(64)
        for length, _ in itertools.product(range(1, 65), range(10)):
            n, t = (int(x) for x in rng.integers(2, 12, 2))
            refs = [[int(b) for b in rng.integers(0, 2, length)] for _ in range(n)]
            samples = [[int(b) for b in rng.integers(0, 2, length)] for _ in range(t)]
            words = [bits_word(s) for s in samples]
            assert metrics.uniqueness([bits_word(r) for r in refs], length) == \
                uniqueness_formula(refs, length)
            assert metrics.reliability(bits_word(refs[0]), words, length) == \
                reliability_formula(refs[0], samples, length, t)
            assert metrics.uniformity(words, length) == uniformity_formula(samples, length)


class TestHistogram:
    def test_csv_emission(self, tmp_path):
        report = metrics.MetricsReport(
            voltage=1.3, bch_stage="raw", id_length=2, uniqueness_pct=50.0,
            reliability_pct_per_chip={0: 100.0}, uniformity_pct_per_chip={0: 50.0},
            intra=[3, 1, 0], inter=[1, 2, 1])
        report.save(tmp_path)
        assert (tmp_path / "histograms.csv").read_bytes() == (
            b"population,distance,count\r\n"
            b"intra,0,3\r\nintra,1,1\r\nintra,2,0\r\n"
            b"inter,0,1\r\ninter,1,2\r\ninter,2,1\r\n")
        saved = json.loads((tmp_path / "report.json").read_text())
        assert (saved["intra_hist"], saved["inter_hist"]) == ([3, 1, 0], [1, 2, 1])
