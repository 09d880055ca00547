from fractions import Fraction

import numpy as np
import pytest

from conftest import HandMadeCampaign, held, make_unit, packed_dataset, word_of
from oracles import (closed_form_word, event_walk_word, flip_rates, hex_word, hex_word_bits,
                     modal_row_by_unique, pack_rows, toggle_counts, unpack_rows)
from ropuf import chipsim, metrics, ro
from ropuf.dataset import hex_words, load_dataset, save_dataset
from ropuf.errors import ConfigurationError, DatasetError
from ropuf.rng import keyed_rng

# Patterns for the two ratios of the waveform figure, frozen from the
# exact closed-form oracle (floor((2k+1)/rho) mod 2 on the float64 ratios).
PATTERN_1_1 = "0000011111100000"
PATTERN_1_2 = "0001110001110001"


def hex_to_rows(words: list[str], length: int) -> np.ndarray:
    """(n, length) bit rows of hex words, the inverse of hex_words."""
    return np.array([hex_word_bits(w, length) for w in words], dtype=np.uint8).reshape(-1, length)


def loaded_words(tmp_path, words: list[str], length: int) -> np.ndarray:
    """(n, ceil(length/8)) packed bytes that load_dataset, the one hex
    decoder, reads from words written as chip 0's samples of a saved
    2-chip dataset of length-bit IDs; raises DatasetError for a bad word."""
    cfg = chipsim.CampaignConfig(n_chips=2, pairs_per_id=1, word_length=length,
                                 samples_per_chip=len(words), voltages=(1.3,))
    zeros = np.zeros((2, len(words), length), dtype=np.uint8)
    csv_path, sidecar = tmp_path / "dataset.csv", tmp_path / "dataset.json"
    save_dataset(packed_dataset(cfg, zeros[:, 0], {1.3: zeros}), csv_path, sidecar)
    lines = csv_path.read_text().splitlines()
    lines[1:1 + len(words)] = [f"0,1.3,{t},{w}" for t, w in enumerate(words)]
    csv_path.write_text("\n".join(lines) + "\n")
    return held(load_dataset(csv_path, sidecar), 1.3)[1][0]


class TestHexCodec:
    """hex_words writes the words; load_dataset decodes them."""

    LENGTHS = range(1, 41)  # every digit width to 10, partial top nibbles included

    @pytest.mark.parametrize("length", LENGTHS)
    def test_agrees_with_int_oracle_and_round_trips(self, rng, tmp_path, length):
        rows = rng.integers(0, 2, (12, length), dtype=np.uint8)
        rows[0], rows[1] = 0, 1
        words = list(hex_words(pack_rows(rows).tobytes(), length))
        assert words == [hex_word(r) for r in rows]
        assert all(len(w) == -(-length // 4) for w in words)
        assert np.array_equal(hex_to_rows(words, length), rows)
        back = unpack_rows(loaded_words(tmp_path, words, length), length)
        assert back.shape == rows.shape and np.array_equal(back, rows)
        upper = loaded_words(tmp_path, [w.upper() for w in words], length)
        assert np.array_equal(unpack_rows(upper, length), rows)

    def test_hex_is_msb_first(self):
        w = word_of([1] + [0] * 15)
        assert list(hex_words(pack_rows(w[None, :]).tobytes(), 16)) == ["8000"]

    @pytest.mark.parametrize("length", range(1, 71))
    def test_packed_bytes_are_the_hex_words(self, rng, tmp_path, length):
        rows = rng.integers(0, 2, (3, 5, length), dtype=np.uint8)
        packed = pack_rows(rows)
        assert packed.shape == (3, 5, -(-length // 8)) and packed.dtype == np.uint8
        assert np.array_equal(unpack_rows(packed, length), rows)
        flat = packed.reshape(15, -1)
        words = list(hex_words(flat.tobytes(), length))
        # Zero pad bits first, then bit 0 most significant: each row's bytes
        # read as one big-endian integer are its hex word's value.
        assert [int.from_bytes(r.tobytes(), "big") for r in flat] == [int(w, 16) for w in words]
        assert np.array_equal(loaded_words(tmp_path, words, length), flat)

    @pytest.mark.parametrize("length", [n for n in LENGTHS if n % 4])
    def test_one_bit_too_wide_rejected(self, tmp_path, length):
        word = format(1 << length, f"0{-(-length // 4)}x")  # bit L set, same digit count
        with pytest.raises(DatasetError, match=f"does not fit in {length} bits"):
            loaded_words(tmp_path, [word], length)

    @pytest.mark.parametrize("word", ["0xff", " fff", "fff ", "f_ff", "+fff", "fff", "fffff",
                                      "ff.f", "    ", "fffé"])
    def test_exact_width_hex_digits_only(self, tmp_path, word):
        with pytest.raises(DatasetError, match="sample 1: bad hex word"):
            loaded_words(tmp_path, ["0000", word], 16)


class TestPackInto:
    """pack_into ORs bit rows into packed bytes at a bit offset, as a
    campaign places each unit's words in its chip's packed ID."""

    @pytest.mark.parametrize("at", range(16))
    def test_every_width_against_an_int_oracle(self, rng, at):
        """Bytes already set stay set, and the row's word lands at bit at of
        the packed row read as one big-endian int, a spare byte after it."""
        for length in range(1, 21):
            rows = rng.integers(0, 2, (2, 3, length), dtype=np.uint8)
            n = -(-(at + length) // 8) + 1
            packed = rng.integers(0, 256, (2, 3, n), dtype=np.uint8)
            before = [int.from_bytes(r.tobytes(), "big") for r in packed.reshape(6, n)]
            chipsim.pack_into(packed, rows, at)
            want = [b | int("".join(map(str, r)), 2) << (8 * n - at - length)
                    for b, r in zip(before, rows.reshape(6, length))]
            assert [int.from_bytes(r.tobytes(), "big") for r in packed.reshape(6, n)] == want

    @pytest.mark.parametrize("length", [1, 3, 4, 8, 13, 16])
    def test_units_of_one_row_are_pack_rows_of_their_concatenation(self, rng, length):
        """Five units ORed at their offsets into a slice of a zeroed array
        give pack_rows' bytes of the row they form, and nothing outside it."""
        units = [rng.integers(0, 2, (4, 7, length), dtype=np.uint8) for _ in range(5)]
        bits = 5 * length
        packed = np.zeros((4, 9, -(-bits // 8)), dtype=np.uint8)
        for u, rows in enumerate(units):
            chipsim.pack_into(packed[:, 1:8], rows, -bits % 8 + u * length)
        assert np.array_equal(packed[:, 1:8], pack_rows(np.concatenate(units, axis=-1)))
        assert not packed[:, [0, 8]].any()


class TestClosedFormAgreement:
    def test_dense_random_grid(self):
        rng = np.random.default_rng(42)
        for _ in range(2000):
            rho = float(rng.uniform(0.5, 2.0))
            unit = make_unit(rho * 2.0 ** -30, 2.0 ** -30)
            got = list(chipsim.sample_word(unit, 1.3, 0))
            assert got == closed_form_word(16, rho), rho

    @pytest.mark.parametrize("p,q", [(3, 2), (5, 4), (7, 4), (4, 3), (5, 3),
                                     (3, 4), (11, 10), (6, 5), (31, 16), (16, 31)])
    def test_exact_rationals_with_ties(self, p, q):
        # integer-scaled periods make every comparison exact in float64
        unit = make_unit(p * 2.0 ** -34, q * 2.0 ** -34)
        got = list(chipsim.sample_word(unit, 1.3, 0))
        assert got == closed_form_word(16, Fraction(p, q))

    def test_event_walk_oracle_agrees(self):
        rng = np.random.default_rng(7)
        ratios = [float(rng.uniform(0.5, 2.0)) for _ in range(200)]
        ratios += [1.5, 1.25, 1.1, 1.2, 2.0, 0.75]
        for rho in ratios:
            t1, t2 = rho * 2.0 ** -30, 2.0 ** -30
            walked = event_walk_word(t1, t2, 16)
            assert walked == closed_form_word(16, Fraction(t1) / Fraction(t2))
            assert walked == list(chipsim.sample_word(make_unit(t1, t2), 1.3, 0))

    def test_equal_periods_all_zero(self):
        # every sample lands exactly on a toggle instant; pre-toggle value is 0
        w = chipsim.sample_word(make_unit(1e-9, 1e-9), 1.3, 0)
        assert not w.any()

    def test_initial_bit_law(self):
        rng = np.random.default_rng(3)
        for _ in range(500):
            rho = float(rng.uniform(1.0 + 1e-9, 2.0 - 1e-9))
            assert chipsim.sample_word(make_unit(rho * 1e-9, 1e-9), 1.3, 0)[0] == 0
            rho = float(rng.uniform(0.5 + 1e-9, 1.0 - 1e-9))
            assert chipsim.sample_word(make_unit(rho * 1e-9, 1e-9), 1.3, 0)[0] == 1

    def test_waveform_figure_patterns(self):
        w11 = chipsim.sample_word(make_unit(1.1 * 2.0 ** -30, 2.0 ** -30), 1.3, 0)
        w12 = chipsim.sample_word(make_unit(1.2 * 2.0 ** -30, 2.0 ** -30), 1.3, 0)
        assert "".join(map(str, w11)) == PATTERN_1_1
        assert "".join(map(str, w12)) == PATTERN_1_2
        assert not np.array_equal(w11, w12)

    def test_scale_invariance(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            rho = float(rng.uniform(0.5, 2.0))
            scale = float(rng.uniform(1e-10, 1e-6))
            a = chipsim.sample_word(make_unit(rho * 1e-9, 1e-9), 1.3, 0)
            b = chipsim.sample_word(make_unit(rho * scale, scale), 1.3, 0)
            assert np.array_equal(a, b)


class TestCoupledSampling:
    def test_inverter_loop_constant_word_under_jitter(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            t1 = float(rng.uniform(0.8e-9, 1.2e-9))
            t2 = float(rng.uniform(0.8e-9, 1.2e-9))
            unit = make_unit(t1, t2, ro.Coupling("inverter_loop"), jitter=0.03)
            w = chipsim.sample_word(unit, 1.3, int(rng.integers(1 << 31)))
            assert not w.any()

    def test_capacitive_jitter_determinism(self):
        unit = make_unit(1.07e-9, 0.95e-9, ro.Coupling("capacitive", 0.5), jitter=0.001)
        assert np.array_equal(chipsim.sample_word(unit, 1.3, 99),
                              chipsim.sample_word(unit, 1.3, 99))

    def test_capacitive_pulls_ratio_toward_one(self):
        # strong pulling turns a distinct pattern into the near-locked one
        loose = make_unit(1.2e-9, 1.0e-9)
        tight = make_unit(1.2e-9, 1.0e-9, ro.Coupling("capacitive", 0.95))
        w_loose = chipsim.sample_word(loose, 1.3, 0)
        w_tight = chipsim.sample_word(tight, 1.3, 0)
        assert w_tight.sum() < w_loose.sum()


class TestToggleCount:
    """sample_rows sums each edge's toggles in uint8, which wraps past
    255: the bits stay the parity of the searchsorted oracle's counts,
    which do not wrap, on rows wider than 255 columns (B1 = 307 at
    L = 100, 427 at L = 140) and on rows that extend."""

    @pytest.mark.parametrize("length", [16, 100, 140])
    @pytest.mark.parametrize("coupling", [ro.Coupling(), ro.Coupling("capacitive", 0.2)],
                             ids=["none", "capacitive"])
    @pytest.mark.parametrize("t2", [1.45e-9, 2.5e-9], ids=["covered", "extends"])
    def test_parity_of_the_searchsorted_count(self, length, coupling, t2):
        unit = make_unit(1e-9, t2, coupling, word_length=length, jitter=0.01)
        b1w, n2 = chipsim.normal_widths(length)
        rng = np.random.default_rng(length)
        g1, g2 = rng.standard_normal((64, b1w)), rng.standard_normal((64, n2))
        got = chipsim.sample_rows(unit, 1.3, g1, g2, lambda i: keyed_rng(3, i))
        counts = np.array([toggle_counts(unit, 1.3, g1[i], g2[i], keyed_rng(3, i))
                           for i in range(64)])
        assert np.array_equal(got, counts & 1)
        # Every row counts all B1 boundaries of g1 before its last edge
        # only if it extends; past L = 16 some count wraps.
        assert set(counts[:, -1] >= b1w) == {t2 > 2e-9}
        assert (counts.max() > 255) == (length > 16)


class TestFlipRates:
    """sample_rows' per-bit flip rates, against the noiseless word of the
    same coupled unit, agree with oracles.flip_rates' crossing model: six
    period ratios, each with its own jitter, 20,000 rows each."""

    UNITS = [(0.8e-9, 0.003), (0.93e-9, 0.005), (1.0e-9, 0.008), (1.07e-9, 0.01),
             (1.2e-9, 0.015), (1.45e-9, 0.02)]  # (T1, sigma), T2 = 1 ns

    @pytest.mark.parametrize("kappa", [0.0, 0.5, 0.95])
    def test_per_bit_flip_rates_match_the_crossing_model(self, kappa):
        n, worst = 20000, []
        coupling = ro.Coupling("capacitive", kappa)
        for u, (t1, sigma) in enumerate(self.UNITS):
            rng = keyed_rng(4, round(100 * kappa), u)
            g1, g2 = chipsim.draw_rows(rng, n, 16)
            noisy = make_unit(t1, 1e-9, coupling, jitter=sigma)
            rows = chipsim.sample_rows(noisy, 1.3, g1, g2, lambda i: keyed_rng(4, u, i))
            word = chipsim.sample_rows(make_unit(t1, 1e-9, coupling), 1.3, g1[:1], g2[:1],
                                       None)[0]
            observed = (rows != word).mean(axis=0)
            t1e, t2e, rho_j = ro.apply_coupling(t1, 1e-9, coupling)
            for k, p in enumerate(flip_rates(t1e / 2, t2e / 2, sigma, sigma, rho_j, 16)):
                se = max((p * (1.0 - p) / n) ** 0.5, 1.0 / n)
                worst.append((abs(observed[k] - p) / se, t1, k, observed[k], p))
        assert max(worst)[0] <= 4.5, max(worst)
        assert max(w[4] for w in worst) > 0.4  # some bit sits on a boundary

    # (T1 in ns, sigma) of each chip's two units, T2 = 1 ns: every p_k < 0.3
    CHIPS = [((0.83, 0.008), (1.09, 0.006)), ((0.91, 0.008), (1.23, 0.004)),
             ((1.17, 0.008), (1.03, 0.006)), ((1.37, 0.008), (0.89, 0.004)),
             ((1.53, 0.008), (1.11, 0.008)), ((1.27, 0.006), (0.83, 0.004))]

    def test_per_chip_raw_reliability_matches_the_crossing_model(self):
        """compute_report's raw reliability of each chip, against the
        noiseless word it enrolls, is 100 (1 - mean p_k) over the chip's
        units and bits, within 4.5 standard errors of the chip's mean
        fractional distance over its 2000 samples."""
        n = 2000
        cfg = chipsim.CampaignConfig(n_chips=len(self.CHIPS), samples_per_chip=n,
                                     voltages=(1.3,), master_seed=35)
        ds = HandMadeCampaign(cfg, ro.RoParams(), chip_units=lambda c: tuple(
            make_unit(t1 * 1e-9, 1e-9, jitter=sigma) for t1, sigma in self.CHIPS[c])).collect()
        refs, cells = held(ds, 1.3)
        report = metrics.compute_report(ds)
        worst = []
        for c, units in enumerate(self.CHIPS):
            assert refs[c].tolist() == [b for t1, _ in units for b in closed_form_word(16, t1)]
            rates = [p for t1, sigma in units
                     for p in flip_rates(t1 * 1e-9 / 2, 0.5e-9, sigma, sigma, 0.0, 16)]
            assert max(rates) < 0.3
            want = 100.0 * (1.0 - sum(rates) / len(rates))
            distances = (unpack_rows(cells[c], 32) != refs[c]).mean(axis=1) * 100.0
            se = max(float(distances.std(ddof=1)) / n ** 0.5, 100.0 / (32 * n))
            worst.append((abs(report.reliability_pct_per_chip[c] - want) / se, c, want))
        assert max(worst)[0] <= 4.5, max(worst)
        assert min(w[2] for w in worst) < 99.0  # some chip is visibly unreliable


class TestKernelInputs:
    """A chunk's normals are reused at every voltage, so sample_rows only
    reads g1 and g2: read-only inputs sample the same words."""

    @pytest.mark.parametrize("coupling", [ro.Coupling(), ro.Coupling("capacitive", 0.5),
                                          ro.Coupling("inverter_loop")],
                             ids=["none", "capacitive", "inverter_loop"])
    @pytest.mark.parametrize("t1", [0.2e-9, 1.1e-9], ids=["extends", "covered"])
    def test_sample_rows_never_writes_its_normals(self, rng, coupling, t1):
        unit = make_unit(t1, 1.2e-9, coupling, jitter=0.004)
        b1w, n2 = chipsim.normal_widths(unit.word_length)
        g1, g2 = rng.standard_normal((9, b1w)), rng.standard_normal((9, n2))
        kept = g1.copy(), g2.copy()
        want = chipsim.sample_rows(unit, 1.3, g1, g2, np.random.default_rng)
        assert np.array_equal(g1, kept[0]) and np.array_equal(g2, kept[1])
        g1.flags.writeable = g2.flags.writeable = False  # any write now raises
        for v in (1.25, 1.3):
            got = chipsim.sample_rows(unit, v, g1, g2, np.random.default_rng)
        assert np.array_equal(got, want)


class TestEnroll:
    def test_noiseless_idempotent(self):
        unit = make_unit(1.13e-9, 1.0e-9)
        for reps in (1, 3, 99):
            assert np.array_equal(chipsim.enroll_id(unit, reps, 1.3, 17),
                                  chipsim.sample_word(unit, 1.3, 0))

    @staticmethod
    def _block(monkeypatch, words):
        # enroll_id takes the modal row of one block of sample_rows
        rows = np.array(words)
        monkeypatch.setattr(chipsim, "sample_rows", lambda unit, v, g1, g2, ext: rows)

    def test_strict_majority_of_whole_words(self, monkeypatch):
        self._block(monkeypatch, [word_of([0, 0, 1]), word_of([0, 0, 1]), word_of([1, 1, 1])])
        unit = make_unit(1e-9, 1e-9)
        assert np.array_equal(chipsim.enroll_id(unit, 3, 1.3, 0), word_of([0, 0, 1]))

    def test_modal_tie_falls_back_to_bitwise_majority(self, monkeypatch):
        self._block(monkeypatch, [word_of([1, 1, 0]), word_of([1, 0, 1]),
                                  word_of([0, 1, 1]), word_of([1, 1, 1])])
        unit = make_unit(1e-9, 1e-9)
        # all four words tie at count 1 -> per-bit majority is 1,1,1
        assert np.array_equal(chipsim.enroll_id(unit, 4, 1.3, 0), word_of([1, 1, 1]))

    def test_two_tied_modes_fall_back_to_bitwise_majority(self):
        # [1,1,0] and [0,1,1] tie at two each, above the one [1,0,1]; the
        # per-bit majority 1,1,1 is neither tied row.
        words = np.array([[1, 1, 0], [0, 1, 1], [1, 0, 1], [1, 1, 0], [0, 1, 1]],
                         dtype=np.uint8)
        assert chipsim.modal_row(words).tolist() == [1, 1, 1]

    @pytest.mark.parametrize("length", [1, 16, 70])
    def test_modal_row_matches_unique_rows(self, length):
        # Blocks drawn from a few distinct rows, so modes often tie.
        rng = np.random.default_rng(length)
        ties = 0
        for _ in range(200):
            pool = rng.integers(0, 2, (int(rng.integers(1, 5)), length), dtype=np.uint8)
            words = pool[rng.integers(0, len(pool), int(rng.integers(1, 10)))]
            counts = np.unique(words, axis=0, return_counts=True)[1]
            ties += np.count_nonzero(counts == counts.max()) > 1
            got = chipsim.modal_row(words)
            assert got.dtype == words.dtype and got.shape == (length,)
            assert np.array_equal(got, modal_row_by_unique(words))
            got[:] ^= 1  # a fresh array: the block is untouched
            assert not np.shares_memory(got, words)
            assert np.array_equal(chipsim.modal_row(np.asfortranarray(words)), got ^ 1)
        assert ties >= 10

    @pytest.mark.parametrize("dtype", [np.int64, np.bool_, ">u2"])
    def test_modal_row_keeps_dtype(self, dtype):
        rng = np.random.default_rng(7)
        for block in ([[1, 0, 1]] * 2 + [[0, 0, 1]], rng.integers(0, 2, (6, 16))):
            words = np.asarray(block).astype(dtype)
            got = chipsim.modal_row(words)
            assert got.dtype == words.dtype
            assert np.array_equal(got, modal_row_by_unique(words))

    def test_per_bit_tie_resolves_to_zero(self, monkeypatch):
        self._block(monkeypatch, [word_of([1, 0]), word_of([0, 1])])
        unit = make_unit(1e-9, 1e-9)
        assert np.array_equal(chipsim.enroll_id(unit, 2, 1.3, 0), word_of([0, 0]))

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
            noiseless = chipsim.sample_word(make_unit(rho * 1e-9, 1e-9), 1.3, 0)
            noisy_unit = make_unit(rho * 1e-9, 1e-9, jitter=jitter)
            enrolled = chipsim.enroll_id(noisy_unit, 99, 1.3, int(rng.integers(1 << 31)))
            assert np.array_equal(enrolled, noiseless), rho
        assert checked > 10

    def test_deterministic(self):
        unit = make_unit(1.1e-9, 1.0e-9, jitter=0.005)
        assert np.array_equal(chipsim.enroll_id(unit, 21, 1.3, 4),
                              chipsim.enroll_id(unit, 21, 1.3, 4))

    def test_bad_repetitions(self):
        with pytest.raises(ConfigurationError):
            chipsim.enroll_id(make_unit(1e-9, 1e-9), 0, 1.3, 0)
