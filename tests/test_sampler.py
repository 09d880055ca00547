from fractions import Fraction

import numpy as np
import pytest

from conftest import held, make_unit, packed_dataset, word_of
from oracles import (closed_form_word, event_walk_word, hex_word, hex_word_bits,
                     modal_row_by_unique, toggle_counts)
from ropuf import chipsim, ro, sampler
from ropuf.dataset import hex_words
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
    chipsim.save_dataset(packed_dataset(cfg, {1.3: zeros[:, 0]}, {1.3: zeros}), csv_path, sidecar)
    lines = csv_path.read_text().splitlines()
    lines[1:1 + len(words)] = [f"0,1.3,{t},{w}" for t, w in enumerate(words)]
    csv_path.write_text("\n".join(lines) + "\n")
    return held(chipsim.load_dataset(csv_path, sidecar), 1.3)[1][0]


class TestResponseWord:
    """One response word, an (L,) bit array, as its hex word."""

    def test_hex_round_trip(self, rng, tmp_path):
        w = rng.integers(0, 2, 32, dtype=np.uint8)
        words = list(hex_words(sampler.pack_rows(w[None, :]).tobytes(), 32))
        assert np.array_equal(hex_to_rows(words, 32)[0], w)
        assert np.array_equal(sampler.unpack_rows(loaded_words(tmp_path, words, 32), 32)[0], w)

    def test_hex_is_msb_first(self):
        w = word_of([1] + [0] * 15)
        assert list(hex_words(sampler.pack_rows(w[None, :]).tobytes(), 16)) == ["8000"]


class TestHexCodec:
    """hex_words writes the words; load_dataset decodes them."""

    LENGTHS = range(1, 41)  # every digit width to 10, partial top nibbles included

    @pytest.mark.parametrize("length", LENGTHS)
    def test_agrees_with_int_oracle_and_round_trips(self, rng, tmp_path, length):
        rows = rng.integers(0, 2, (12, length), dtype=np.uint8)
        rows[0], rows[1] = 0, 1
        words = list(hex_words(sampler.pack_rows(rows).tobytes(), length))
        assert words == [hex_word(r) for r in rows]
        assert all(len(w) == -(-length // 4) for w in words)
        assert np.array_equal(hex_to_rows(words, length), rows)
        back = sampler.unpack_rows(loaded_words(tmp_path, words, length), length)
        assert back.shape == rows.shape and np.array_equal(back, rows)
        upper = loaded_words(tmp_path, [w.upper() for w in words], length)
        assert np.array_equal(sampler.unpack_rows(upper, length), rows)

    @pytest.mark.parametrize("length", range(1, 71))
    def test_packed_bytes_are_the_hex_words(self, rng, tmp_path, length):
        rows = rng.integers(0, 2, (3, 5, length), dtype=np.uint8)
        packed = sampler.pack_rows(rows)
        assert packed.shape == (3, 5, -(-length // 8)) and packed.dtype == np.uint8
        assert np.array_equal(sampler.unpack_rows(packed, length), rows)
        flat = packed.reshape(15, -1)
        words = list(hex_words(flat.tobytes(), length))
        # Zero pad bits first, then bit 0 most significant: each row's bytes
        # read as one big-endian integer are its hex word's value.
        assert [int.from_bytes(r.tobytes(), "big") for r in flat] == [int(w, 16) for w in words]
        assert np.array_equal(loaded_words(tmp_path, words, length), flat)

    def test_only_a_partial_byte_is_padded(self, rng, monkeypatch):
        """Whole-byte rows pack without np.pad's copy; 18-bit rows need it."""
        rows = rng.integers(0, 2, (5, 32), dtype=np.uint8)
        want = [sampler.pack_rows(rows), sampler.pack_rows(rows[:, :18])]

        def no_pad(*args, **kwargs):
            raise AssertionError("np.pad called")

        monkeypatch.setattr(np, "pad", no_pad)
        assert np.array_equal(sampler.pack_rows(rows), want[0])
        with pytest.raises(AssertionError, match="np.pad called"):
            sampler.pack_rows(rows[:, :18])
        monkeypatch.undo()
        assert want[1].shape == (5, 3)
        assert [int.from_bytes(r.tobytes(), "big") for r in want[1]] == \
            [int.from_bytes(r.tobytes(), "big") >> 14 for r in want[0]]

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


class TestClosedFormAgreement:
    def test_dense_random_grid(self):
        rng = np.random.default_rng(42)
        for _ in range(2000):
            rho = float(rng.uniform(0.5, 2.0))
            unit = make_unit(rho * 2.0 ** -30, 2.0 ** -30)
            got = list(sampler.sample_word(unit, 1.3, 0))
            assert got == closed_form_word(16, rho), rho

    @pytest.mark.parametrize("p,q", [(3, 2), (5, 4), (7, 4), (4, 3), (5, 3),
                                     (3, 4), (11, 10), (6, 5), (31, 16), (16, 31)])
    def test_exact_rationals_with_ties(self, p, q):
        # integer-scaled periods make every comparison exact in float64
        unit = make_unit(p * 2.0 ** -34, q * 2.0 ** -34)
        got = list(sampler.sample_word(unit, 1.3, 0))
        assert got == closed_form_word(16, Fraction(p, q))

    def test_event_walk_oracle_agrees(self):
        rng = np.random.default_rng(7)
        ratios = [float(rng.uniform(0.5, 2.0)) for _ in range(200)]
        ratios += [1.5, 1.25, 1.1, 1.2, 2.0, 0.75]
        for rho in ratios:
            t1, t2 = rho * 2.0 ** -30, 2.0 ** -30
            walked = event_walk_word(t1, t2, 16)
            assert walked == closed_form_word(16, Fraction(t1) / Fraction(t2))
            assert walked == list(sampler.sample_word(make_unit(t1, t2), 1.3, 0))

    def test_equal_periods_all_zero(self):
        # every sample lands exactly on a toggle instant; pre-toggle value is 0
        w = sampler.sample_word(make_unit(1e-9, 1e-9), 1.3, 0)
        assert not w.any()

    def test_initial_bit_law(self):
        rng = np.random.default_rng(3)
        for _ in range(500):
            rho = float(rng.uniform(1.0 + 1e-9, 2.0 - 1e-9))
            assert sampler.sample_word(make_unit(rho * 1e-9, 1e-9), 1.3, 0)[0] == 0
            rho = float(rng.uniform(0.5 + 1e-9, 1.0 - 1e-9))
            assert sampler.sample_word(make_unit(rho * 1e-9, 1e-9), 1.3, 0)[0] == 1

    def test_waveform_figure_patterns(self):
        w11 = sampler.sample_word(make_unit(1.1 * 2.0 ** -30, 2.0 ** -30), 1.3, 0)
        w12 = sampler.sample_word(make_unit(1.2 * 2.0 ** -30, 2.0 ** -30), 1.3, 0)
        assert "".join(map(str, w11)) == PATTERN_1_1
        assert "".join(map(str, w12)) == PATTERN_1_2
        assert not np.array_equal(w11, w12)

    def test_scale_invariance(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            rho = float(rng.uniform(0.5, 2.0))
            scale = float(rng.uniform(1e-10, 1e-6))
            a = sampler.sample_word(make_unit(rho * 1e-9, 1e-9), 1.3, 0)
            b = sampler.sample_word(make_unit(rho * scale, scale), 1.3, 0)
            assert np.array_equal(a, b)


class TestCoupledSampling:
    def test_inverter_loop_constant_word_under_jitter(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            t1 = float(rng.uniform(0.8e-9, 1.2e-9))
            t2 = float(rng.uniform(0.8e-9, 1.2e-9))
            unit = make_unit(t1, t2, ro.Coupling.inverter_loop(), jitter=0.03)
            w = sampler.sample_word(unit, 1.3, int(rng.integers(1 << 31)))
            assert not w.any()

    def test_capacitive_jitter_determinism(self):
        unit = make_unit(1.07e-9, 0.95e-9, ro.Coupling.capacitive(0.5), jitter=0.001)
        assert np.array_equal(sampler.sample_word(unit, 1.3, 99),
                              sampler.sample_word(unit, 1.3, 99))

    def test_capacitive_pulls_ratio_toward_one(self):
        # strong pulling turns a distinct pattern into the near-locked one
        loose = make_unit(1.2e-9, 1.0e-9)
        tight = make_unit(1.2e-9, 1.0e-9, ro.Coupling.capacitive(0.95))
        w_loose = sampler.sample_word(loose, 1.3, 0)
        w_tight = sampler.sample_word(tight, 1.3, 0)
        assert w_tight.sum() < w_loose.sum()


class TestToggleCount:
    """sample_rows sums each edge's toggles in uint8, which wraps past
    255: the bits stay the parity of the searchsorted oracle's counts,
    which do not wrap, on rows wider than 255 columns (B1 = 307 at
    L = 100, 427 at L = 140) and on rows that extend."""

    @pytest.mark.parametrize("length", [16, 100, 140])
    @pytest.mark.parametrize("coupling", [ro.Coupling.none(), ro.Coupling.capacitive(0.2)],
                             ids=["none", "capacitive"])
    @pytest.mark.parametrize("t2", [1.45e-9, 2.5e-9], ids=["covered", "extends"])
    def test_parity_of_the_searchsorted_count(self, length, coupling, t2):
        unit = make_unit(1e-9, t2, coupling, word_length=length, jitter=0.01)
        b1w, n2 = sampler.normal_widths(length)
        rng = np.random.default_rng(length)
        g1, g2 = rng.standard_normal((64, b1w)), rng.standard_normal((64, n2))
        got = sampler.sample_rows(unit, 1.3, g1, g2, lambda i: keyed_rng(3, i))
        counts = np.array([toggle_counts(unit, 1.3, g1[i], g2[i], keyed_rng(3, i))
                           for i in range(64)])
        assert np.array_equal(got, counts & 1)
        # Every row counts all B1 boundaries of g1 before its last edge
        # only if it extends; past L = 16 some count wraps.
        assert set(counts[:, -1] >= b1w) == {t2 > 2e-9}
        assert (counts.max() > 255) == (length > 16)


class TestKernelInputs:
    """A chunk's normals are reused at every voltage, so sample_rows only
    reads g1 and g2: read-only inputs sample the same words."""

    @pytest.mark.parametrize("coupling", [ro.Coupling.none(), ro.Coupling.capacitive(0.5),
                                          ro.Coupling.inverter_loop()],
                             ids=["none", "capacitive", "inverter_loop"])
    @pytest.mark.parametrize("t1", [0.2e-9, 1.1e-9], ids=["extends", "covered"])
    def test_sample_rows_never_writes_its_normals(self, rng, coupling, t1):
        unit = make_unit(t1, 1.2e-9, coupling, jitter=0.004)
        b1w, n2 = sampler.normal_widths(unit.word_length)
        g1, g2 = rng.standard_normal((9, b1w)), rng.standard_normal((9, n2))
        kept = g1.copy(), g2.copy()
        want = sampler.sample_rows(unit, 1.3, g1, g2, np.random.default_rng)
        assert np.array_equal(g1, kept[0]) and np.array_equal(g2, kept[1])
        g1.flags.writeable = g2.flags.writeable = False  # any write now raises
        for v in (1.25, 1.3):
            got = sampler.sample_rows(unit, v, g1, g2, np.random.default_rng)
        assert np.array_equal(got, want)


class TestEnroll:
    def test_noiseless_idempotent(self):
        unit = make_unit(1.13e-9, 1.0e-9)
        for reps in (1, 3, 99):
            assert np.array_equal(sampler.enroll_id(unit, reps, 1.3, 17),
                                  sampler.sample_word(unit, 1.3, 0))

    @staticmethod
    def _block(monkeypatch, words):
        # enroll_id takes the modal row of one block of sample_rows
        rows = np.array(words)
        monkeypatch.setattr(sampler, "sample_rows", lambda unit, v, g1, g2, ext: rows)

    def test_strict_majority_of_whole_words(self, monkeypatch):
        self._block(monkeypatch, [word_of([0, 0, 1]), word_of([0, 0, 1]), word_of([1, 1, 1])])
        unit = make_unit(1e-9, 1e-9)
        assert np.array_equal(sampler.enroll_id(unit, 3, 1.3, 0), word_of([0, 0, 1]))

    def test_modal_tie_falls_back_to_bitwise_majority(self, monkeypatch):
        self._block(monkeypatch, [word_of([1, 1, 0]), word_of([1, 0, 1]),
                                  word_of([0, 1, 1]), word_of([1, 1, 1])])
        unit = make_unit(1e-9, 1e-9)
        # all four words tie at count 1 -> per-bit majority is 1,1,1
        assert np.array_equal(sampler.enroll_id(unit, 4, 1.3, 0), word_of([1, 1, 1]))

    def test_two_tied_modes_fall_back_to_bitwise_majority(self):
        # [1,1,0] and [0,1,1] tie at two each, above the one [1,0,1]; the
        # per-bit majority 1,1,1 is neither tied row.
        words = np.array([[1, 1, 0], [0, 1, 1], [1, 0, 1], [1, 1, 0], [0, 1, 1]],
                         dtype=np.uint8)
        assert sampler.modal_row(words).tolist() == [1, 1, 1]

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
            got = sampler.modal_row(words)
            assert got.dtype == words.dtype and got.shape == (length,)
            assert np.array_equal(got, modal_row_by_unique(words))
            got[:] ^= 1  # a fresh array: the block is untouched
            assert not np.shares_memory(got, words)
            assert np.array_equal(sampler.modal_row(np.asfortranarray(words)), got ^ 1)
        assert ties >= 10

    @pytest.mark.parametrize("dtype", [np.int64, np.bool_, ">u2"])
    def test_modal_row_keeps_dtype(self, dtype):
        rng = np.random.default_rng(7)
        for block in ([[1, 0, 1]] * 2 + [[0, 0, 1]], rng.integers(0, 2, (6, 16))):
            words = np.asarray(block).astype(dtype)
            got = sampler.modal_row(words)
            assert got.dtype == words.dtype
            assert np.array_equal(got, modal_row_by_unique(words))

    def test_per_bit_tie_resolves_to_zero(self, monkeypatch):
        self._block(monkeypatch, [word_of([1, 0]), word_of([0, 1])])
        unit = make_unit(1e-9, 1e-9)
        assert np.array_equal(sampler.enroll_id(unit, 2, 1.3, 0), word_of([0, 0]))

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
            assert np.array_equal(enrolled, noiseless), rho
        assert checked > 10

    def test_deterministic(self):
        unit = make_unit(1.1e-9, 1.0e-9, jitter=0.005)
        assert np.array_equal(sampler.enroll_id(unit, 21, 1.3, 4),
                              sampler.enroll_id(unit, 21, 1.3, 4))

    def test_bad_repetitions(self):
        with pytest.raises(ConfigurationError):
            sampler.enroll_id(make_unit(1e-9, 1e-9), 0, 1.3, 0)
