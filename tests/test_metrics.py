import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import word_of
from oracles import (line_fit_by_polyfit, mean_by_numpy, reliability_formula,
                     uniformity_formula, uniqueness_formula)
from ropuf import chipsim, metrics

bits_lists = st.lists(st.integers(0, 1), min_size=1, max_size=24)


def words_strategy(length, n):
    return st.lists(
        st.lists(st.integers(0, 1), min_size=length, max_size=length),
        min_size=n, max_size=n)


def hamming(a: np.ndarray, b: np.ndarray) -> int:
    """Hamming distance of two words, as the pairwise kernel behind
    uniqueness and the inter-chip histogram counts it."""
    return metrics._pair_distances(metrics._bit_words([a, b], len(a)))[0]


class TestHamming:
    def test_identity(self):
        w = word_of([1, 0, 1, 1])
        assert hamming(w, w) == 0

    def test_complement(self):
        assert hamming(word_of([0, 0, 0, 0]), word_of([1, 1, 1, 1])) == 4

    def test_alternating_complement(self):
        a = word_of([1, 0] * 8)
        b = word_of([0, 1] * 8)
        assert hamming(a, b) == 16

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            metrics.uniqueness(np.array([word_of([1]), word_of([0])]), 2)  # 1 bit, not 2

    @given(bits_lists, bits_lists, bits_lists)
    def test_metric_axioms(self, a, b, c):
        n = min(len(a), len(b), len(c))
        wa, wb, wc = word_of(a[:n]), word_of(b[:n]), word_of(c[:n])
        assert hamming(wa, wb) == hamming(wb, wa)
        assert (hamming(wa, wb) == 0) == np.array_equal(wa, wb)
        assert hamming(wa, wc) <= hamming(wa, wb) + hamming(wb, wc)
        assert metrics._pair_distances(metrics._bit_words([wa, wb, wc], n)) == [
            hamming(wa, wb), hamming(wa, wc), hamming(wb, wc)]


class TestUniqueness:
    def test_identical_pair_is_zero(self):
        w = word_of([1, 0, 1, 0])
        assert metrics.uniqueness([w, w], 4) == 0.0

    def test_full_distance_pair(self):
        assert metrics.uniqueness([word_of([0] * 4), word_of([1] * 4)], 4) == 100.0

    def test_three_chip_hand_value(self):
        refs = [word_of([0, 0, 0, 0]), word_of([0, 0, 1, 1]), word_of([1, 1, 1, 1])]
        # pairwise distances 2, 4, 2 -> (2+4+2)/3/4*100
        assert metrics.uniqueness(refs, 4) == pytest.approx(200.0 / 3.0, rel=1e-12)

    def test_needs_two(self):
        with pytest.raises(ValueError):
            metrics.uniqueness([word_of([1, 0])], 2)

    @given(words_strategy(6, 4), st.permutations(range(4)))
    def test_invariant_under_chip_permutation(self, words, perm):
        refs = [word_of(w) for w in words]
        shuffled = [refs[i] for i in perm]
        assert metrics.uniqueness(refs, 6) == pytest.approx(
            metrics.uniqueness(shuffled, 6), rel=1e-12)

    @given(words_strategy(6, 3), st.permutations(range(6)))
    def test_invariant_under_bit_permutation(self, words, perm):
        refs = [word_of(w) for w in words]
        permuted = [word_of([w[i] for i in perm]) for w in words]
        assert metrics.uniqueness(refs, 6) == pytest.approx(
            metrics.uniqueness(permuted, 6), rel=1e-12)


class TestReliability:
    def test_perfect(self):
        w = word_of([1, 0, 1, 0])
        assert metrics.reliability(w, [w, w, w], 4) == 100.0

    def test_single_flip_of_sixteen(self):
        ref = word_of([0] * 16)
        sample = word_of([1] + [0] * 15)
        assert metrics.reliability(ref, [sample], 16) == pytest.approx(93.75)

    def test_hand_value(self):
        ref = word_of([0, 0, 0, 0])
        samples = [word_of([1, 0, 0, 0]), word_of([1, 1, 1, 0])]
        assert metrics.reliability(ref, samples, 4) == pytest.approx(50.0)

    def test_hundred_iff_all_equal(self):
        ref = word_of([1, 0])
        assert metrics.reliability(ref, [ref, word_of([1, 1])], 2) < 100.0

    def test_needs_samples(self):
        with pytest.raises(ValueError):
            metrics.reliability(word_of([1]), np.zeros((0, 1), dtype=np.uint8), 1)


class TestUniformity:
    def test_all_zero(self):
        assert metrics.uniformity([word_of([0] * 8)], 8) == 0.0

    def test_alternating(self):
        w = word_of([1, 0] * 8)  # hex word aaaa
        assert metrics.uniformity([w], 16) == 50.0

    def test_hand_average(self):
        ws = [word_of([1, 1, 0, 0]), word_of([1, 1, 1, 0])]
        assert metrics.uniformity(ws, 4) == pytest.approx(62.5)

    @given(words_strategy(8, 3))
    def test_complement_relation(self, words):
        ws = [word_of(w) for w in words]
        comp = [word_of([1 - b for b in w]) for w in words]
        assert metrics.uniformity(comp, 8) == pytest.approx(
            100.0 - metrics.uniformity(ws, 8), abs=1e-9)


class TestFormulaOracle:
    def test_random_small_instances(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 6))
            length = int(rng.integers(1, 9))
            t = int(rng.integers(1, 5))
            refs = [[int(b) for b in rng.integers(0, 2, length)] for _ in range(n)]
            samples = [[int(b) for b in rng.integers(0, 2, length)] for _ in range(t)]
            got = metrics.uniqueness([word_of(r) for r in refs], length)
            want = uniqueness_formula(refs, length)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)
            got = metrics.reliability(word_of(refs[0]), [word_of(s) for s in samples],
                                      length, t)
            want = reliability_formula(refs[0], samples, length, t)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)
            got = metrics.uniformity([word_of(s) for s in samples], length)
            want = uniformity_formula(samples, length)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


class TestPairwiseMean:
    """metrics._mean, a port of numpy's pairwise float64 sum, against
    np.mean itself: every size below 300, then the sizes around the
    128-value blocks and the splits at multiples of 8."""

    SIZES = [*range(1, 300), 511, 512, 513, 1000, 1023, 1024, 1025, 4999, 5000, 5001, 20000]

    def test_random_floats_across_ten_decades(self):
        rng = np.random.default_rng(17)
        for n in self.SIZES:
            for _ in range(20):
                values = (rng.random(n) * 10.0 ** rng.integers(-5, 5, n)).tolist()
                assert metrics._mean(values) == mean_by_numpy(values), n

    def test_ones_fractions_as_uniformity_averages_them(self):
        rng = np.random.default_rng(18)
        for n in self.SIZES:
            for _ in range(20):
                length = int(rng.choice([3, 17, 31, 32, 70]))
                ones = rng.integers(0, length + 1, n)
                assert metrics._mean((ones / length).tolist()) == mean_by_numpy(ones / length)
                assert metrics._uniformity_pct(ones.tolist(), length) == \
                    float(np.mean(ones / length) * 100.0), (n, length)


class TestLinearFit:
    def test_collinear_points(self):
        fit = chipsim.linear_fit([(0.0, 1.0), (1.0, 3.0), (2.0, 5.0)])
        assert fit["slope"] == pytest.approx(2.0, rel=1e-9)
        assert fit["intercept"] == pytest.approx(1.0, rel=1e-9)
        assert fit["r2"] == pytest.approx(1.0, abs=1e-12)

    def test_constructed_line(self):
        fit = chipsim.linear_fit([(0.0, 0.0), (0.1, 2.0), (0.2, 4.0)])
        assert fit["slope"] == pytest.approx(20.0, rel=1e-9)
        assert fit["intercept"] == pytest.approx(0.0, abs=1e-9)

    def test_r2_of_scattered_points_is_squared_correlation(self):
        # With an intercept, least squares R^2 is Pearson's r squared.
        points = [(0.0, 1.0), (1.0, 3.0), (2.0, 2.0), (3.0, 6.0)]
        n = len(points)
        mx = sum(x for x, _ in points) / n
        my = sum(y for _, y in points) / n
        sxy = sum((x - mx) * (y - my) for x, y in points)
        sxx = sum((x - mx) ** 2 for x, _ in points)
        syy = sum((y - my) ** 2 for _, y in points)
        fit = chipsim.linear_fit(points)
        assert fit["slope"] == pytest.approx(sxy / sxx, rel=1e-9)
        assert fit["r2"] == pytest.approx(sxy * sxy / (sxx * syy), rel=1e-9)
        assert fit["r2"] < 0.9

    def test_degenerate_abscissae(self):
        with pytest.raises(ValueError):
            chipsim.linear_fit([(1.0, 2.0), (1.0, 3.0)])

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            chipsim.linear_fit([(0.0, 0.0)])

    def test_exact_line_is_exact(self):
        assert chipsim.linear_fit([(0, 1), (1, 3)]) == {"slope": 2.0, "intercept": 1.0,
                                                         "r2": 1.0}

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("axis", [0, 1])
    def test_non_finite_coordinate(self, bad, axis):
        points = [[0.0, 1.0], [1.0, 3.0], [2.0, 4.0]]
        points[1][axis] = bad
        with pytest.raises(ValueError, match="finite"):
            chipsim.linear_fit([tuple(p) for p in points])

    @pytest.mark.parametrize("points", [[(0.0, 0.0), (1e200, 1e200)],
                                        [(-1e154, 0.0), (1e154, 1.0), (0.0, 2.0)],
                                        [(0.0, 1e308), (1.0, -1e308)]])
    def test_sums_past_the_float_range(self, points):
        with pytest.raises(ValueError, match="too large"):
            chipsim.linear_fit(points)

    def test_matches_polyfit(self):
        rng = np.random.default_rng(15)
        for _ in range(300):
            n = int(rng.integers(2, 6))
            x = rng.choice([0.0, 0.05, 0.1, 0.15, 0.2], n, replace=False) * rng.uniform(0.1, 10)
            y = rng.normal(0.0, 1.0, n) + rng.normal(0.0, 50.0) * x
            points = list(zip(x.tolist(), y.tolist()))
            got, want = chipsim.linear_fit(points), line_fit_by_polyfit(points)
            assert got["slope"] == pytest.approx(want["slope"], rel=1e-12, abs=1e-12)
            assert got["intercept"] == pytest.approx(want["intercept"], rel=1e-12, abs=1e-12)
            assert got["r2"] == pytest.approx(want["r2"], rel=1e-12, abs=1e-12)


class TestHistogram:
    def test_counts_and_mass(self):
        h = metrics.HdHistogram.from_distances("intra", 4, [0, 0, 1, 4])
        assert h.total == 4
        assert list(h.counts) == [2, 1, 0, 0, 1]
        assert h.mass_at(0) == 0.5
        assert h.mean() == pytest.approx(1.25)

    def test_distance_beyond_length_rejected(self):
        with pytest.raises(ValueError):
            metrics.HdHistogram.from_distances("intra", 2, [3])

    def test_mass_at_distance_outside_length_rejected(self):
        h = metrics.HdHistogram.from_distances("intra", 4, [0, 0, 1, 4])
        assert h.mass_at(4) == 0.25
        for distance in (-1, 5):
            with pytest.raises(ValueError, match=f"distance {distance} is not in 0..4"):
                h.mass_at(distance)

    def test_csv_emission(self, tmp_path):
        h = metrics.HdHistogram.from_distances("inter", 2, [0, 1, 1, 2])
        path = tmp_path / "hist.csv"
        metrics.write_histogram_csv(path, [h])
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "population,distance,count"
        assert lines[1:] == ["inter,0,1", "inter,1,2", "inter,2,1"]
