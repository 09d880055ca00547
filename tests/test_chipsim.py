import csv
import dataclasses
import functools
import json
import re
from collections import Counter

import numpy as np
import pytest

from conftest import held, packed_dataset
from oracles import bits_word, line_fit_by_polyfit, report_formula, sweep_by_numpy, unpack_rows
from ropuf import chipsim, cli, config, metrics, ro
from ropuf.dataset import load_dataset, save_dataset
from ropuf.errors import ConfigurationError, DatasetError
from ropuf.rng import TAG_ENROLL_EXTEND

FAST = dict(n_chips=4, samples_per_chip=20, enroll_repetitions=9)


def small_campaign(master_seed=5, voltages=(1.3,), params=None,
                   coupling=ro.Coupling(), **overrides):
    params = params or ro.RoParams()
    cfg = chipsim.CampaignConfig(voltages=voltages, master_seed=master_seed,
                                 **{**FAST, **overrides})
    return chipsim.run_campaign(cfg, params, coupling), cfg, params


class TestPopulation:
    def test_shapes(self):
        cfg = chipsim.CampaignConfig(n_chips=10, pairs_per_id=2, word_length=16)
        campaign = chipsim.Campaign(cfg, ro.RoParams())
        chips = [tuple(campaign.units(c)) for c in range(cfg.n_chips)]
        assert len(chips) == 10
        assert all(len(units) == 2 for units in chips)
        assert cfg.id_length == 32

    def test_same_seed_identical_population(self):
        cfg = chipsim.CampaignConfig(master_seed=77, **FAST)
        a = chipsim.Campaign(cfg, ro.RoParams())
        b = chipsim.Campaign(cfg, ro.RoParams())
        assert [tuple(a.units(c)) for c in range(cfg.n_chips)] == \
            [tuple(b.units(c)) for c in range(cfg.n_chips)]

    def test_zero_process_variation_clones_chips(self):
        params = ro.RoParams(process_sigma=0.0, jitter_sigma=0.0,
                             voltage_sensitivity_sigma=0.0)
        ds, cfg, _ = small_campaign(params=params)
        campaign = chipsim.Campaign(cfg, params)
        assert all(tuple(campaign.units(c)) == tuple(campaign.units(0))
                   for c in range(cfg.n_chips))
        refs = held(ds, 1.3)[0]
        assert all(np.array_equal(r, refs[0]) for r in refs)
        assert metrics.uniqueness([bits_word(r) for r in refs], cfg.id_length) == 0.0

    def test_config_validation(self):
        with pytest.raises(ConfigurationError, match="n_chips"):
            chipsim.CampaignConfig(n_chips=1).validate()
        with pytest.raises(ConfigurationError, match="id_length"):
            chipsim.CampaignConfig(id_length=31).validate()
        with pytest.raises(ConfigurationError, match="model range"):
            chipsim.CampaignConfig(voltages=(2.8,)).validate(ro.RoParams())
        # |gamma*(V-V0)| is exactly 0.5 at the bound (0.5/V * 1 V) and is
        # rejected; just inside it (0.5/V * 0.9375 V) is accepted.
        edge = ro.RoParams(voltage_sensitivity_mean=0.5, voltage_sensitivity_sigma=0.0,
                           reference_voltage=1.0)
        with pytest.raises(ConfigurationError, match="model range"):
            chipsim.CampaignConfig(voltages=(1.0, 2.0)).validate(edge)
        chipsim.CampaignConfig(voltages=(1.0, 1.9375)).validate(edge)

    def test_id_must_fit_in_a_dataset_row(self):
        """csv.reader refuses a field past its limit, so the widest ID is 4
        bits a hex digit times it: accepted, and 4 bits more refused."""
        assert config.CSV_FIELD_LIMIT == csv.field_size_limit()
        chipsim.CampaignConfig(pairs_per_id=2 ** 15, word_length=16).validate()
        with pytest.raises(ConfigurationError, match=r"^pairs_per_id x word_length: "):
            chipsim.CampaignConfig(pairs_per_id=131073, word_length=4).validate()

    def test_id_length_message_names_the_product(self):
        cfg = chipsim.CampaignConfig(pairs_per_id=2, word_length=16, id_length=31)
        with pytest.raises(ConfigurationError,
                           match=r"^id_length 31 != pairs_per_id\*word_length 32$"):
            cfg.validate()


class TestCampaign:
    def test_grid_size_and_completeness(self):
        ds, cfg, _ = small_campaign(voltages=(1.25, 1.3))
        ds.check_complete()
        for c in range(cfg.n_chips):
            for v in cfg.voltages:
                assert unpack_rows(held(ds, v)[1][c], cfg.id_length).shape == (20, 32)

    def test_zero_jitter_reliability_exact_100(self):
        params = ro.RoParams(jitter_sigma=0.0)
        ds, cfg, _ = small_campaign(params=params)
        report = metrics.compute_report(ds)
        assert all(v == 100.0 for v in report.reliability_pct_per_chip.values())
        assert report.intra[0] / sum(report.intra) == 1.0

    def test_campaign_checks_before_sampling(self, monkeypatch):
        monkeypatch.setattr(chipsim, "sample_rows", None)  # sampling would raise TypeError
        for overrides, match in [({"n_chips": 1, "voltages": (1.3,)}, "n_chips"),
                                 ({"voltages": (2.8,)}, "model range")]:
            with pytest.raises(ConfigurationError, match=match):
                chipsim.Campaign(chipsim.CampaignConfig(**{**FAST, **overrides}), ro.RoParams())

    def test_streams_keyed_by_voltage_value(self):
        # shared voltages give identical words no matter what else is swept
        a, _, _ = small_campaign(master_seed=21, voltages=(1.3, 1.25))
        b, _, _ = small_campaign(master_seed=21, voltages=(1.25, 1.35, 1.3))
        for v in (1.25, 1.3):
            assert np.array_equal(held(a, v)[1], held(b, v)[1])

    def test_references_are_those_of_a_v0_only_campaign(self, monkeypatch):
        """Enrollment evaluates its rows at V0 alone, so a swept campaign's
        references are those of the same campaign run at V0 only, also
        where enrollment rows extend from their own streams and where modal
        ties fall back to the bitwise majority (process_sigma 0.3 squeezes
        some units' period ratios past their rows' RO1 normals)."""
        keys, calls, ties = [], [], []
        real_rng, real_rows, real_modal = chipsim.keyed_rng, chipsim.sample_rows, chipsim.modal_row

        def recording_rng(*key):
            keys.append(key)
            return real_rng(*key)

        def recording_rows(unit, v, g1, g2, extension):
            calls.append((v, len(g1)))
            return real_rows(unit, v, g1, g2, extension)

        def counting_modal(words):
            counts = Counter(map(bytes, words)).values()
            ties.append(sum(n == max(counts) for n in counts) > 1)
            return real_modal(words)

        monkeypatch.setattr(chipsim, "keyed_rng", recording_rng)
        monkeypatch.setattr(chipsim, "sample_rows", recording_rows)
        monkeypatch.setattr(chipsim, "modal_row", counting_modal)
        params = ro.RoParams(process_sigma=0.3, jitter_sigma=0.008)
        swept, cfg, _ = small_campaign(master_seed=8, voltages=(1.25, 1.3, 1.35), params=params)
        # Enrollment chunks hold 9 rows, sample chunks 20: one of each per
        # unit and voltage, and enrollment at V0 alone.
        assert Counter(calls) == {(1.3, 9): 8, **{(v, 20): 8 for v in cfg.voltages}}
        assert sum(k[1] == TAG_ENROLL_EXTEND for k in keys) == 18
        assert sum(ties) == 2
        alone, _, _ = small_campaign(master_seed=8, voltages=(1.3,), params=params)
        assert np.array_equal(held(swept, 1.3)[0], held(alone, 1.3)[0])

    def test_inter_chip_words_look_independent(self):
        ds, cfg, _ = small_campaign(master_seed=2, n_chips=12)
        u = metrics.uniqueness([bits_word(r) for r in held(ds, 1.3)[0]], cfg.id_length)
        assert 30.0 < u < 70.0


class TestVoltageSweep:
    def test_zero_shift_at_reference(self):
        ds, _, _ = small_campaign(voltages=(1.25, 1.3, 1.35))
        series = dict(chipsim.voltage_sweep(ds))
        assert series[0.0] == 0.0

    def test_shared_sensitivity_cancels(self):
        params = ro.RoParams(voltage_sensitivity_sigma=0.0)
        ds, _, _ = small_campaign(voltages=(1.2, 1.3, 1.4), params=params)
        for _, shift in chipsim.voltage_sweep(ds):
            assert shift == 0.0

    def test_missing_reference_voltage(self):
        ds, _, _ = small_campaign(voltages=(1.25, 1.3))
        ds.ro_params = dataclasses.replace(ds.ro_params, reference_voltage=1.35)
        with pytest.raises(DatasetError, match=r"^reference voltage 1\.35 not in dataset"):
            chipsim.voltage_sweep(ds)

    def test_mismatch_shifts_grow_with_offset(self):
        params = ro.RoParams()
        cfg = chipsim.CampaignConfig(n_chips=20, samples_per_chip=40,
                                     enroll_repetitions=19,
                                     voltages=(1.2, 1.3, 1.4), master_seed=6)
        ds = chipsim.run_campaign(cfg, params)
        series = dict(chipsim.voltage_sweep(ds))
        shifts = {round(dv, 2): s for dv, s in series.items()}
        assert shifts[-0.1] > 0.0 and shifts[0.1] > 0.0
        fit = chipsim.fit_sweep(list(series.items()))
        assert fit["slope"] > 0.0

    @pytest.mark.parametrize("word_length", [9, 16, 17])  # 18, 32 and 34 bits: 6, 0, 6 pad
    def test_random_datasets_match_the_numpy_count(self, word_length):
        volts = (1.2, 1.25, 1.3, 1.35, 1.4)
        for seed in range(5):
            ds = random_dataset(word_length=word_length, n_chips=4, samples=30,
                                voltages=volts, seed=seed)
            for v0 in (1.3, 1.2, 1.4):
                ds.ro_params = dataclasses.replace(ds.ro_params, reference_voltage=v0)
                assert chipsim.voltage_sweep(ds) == sweep_by_numpy(ds), (seed, v0)

    def test_campaign_and_loaded_sources_match_the_numpy_count(self, tmp_path):
        params = ro.RoParams()
        cfg = chipsim.CampaignConfig(voltages=(1.2, 1.25, 1.3, 1.35, 1.4), master_seed=8,
                                     **FAST)
        lazy = chipsim.Campaign(cfg, params)
        save_dataset(lazy, tmp_path / "d.csv", tmp_path / "d.json")
        loaded = load_dataset(tmp_path / "d.csv", tmp_path / "d.json")
        for source in (lazy, loaded):
            series = chipsim.voltage_sweep(source)
            assert series == sweep_by_numpy(source)
            assert any(shift != 0.0 for _, shift in series)


class TestSerialization:
    def test_round_trip(self, tmp_path):
        ds, cfg, _ = small_campaign(voltages=(1.25, 1.3))
        save_dataset(ds, tmp_path / "d.csv", tmp_path / "d.json")
        loaded = load_dataset(tmp_path / "d.csv", tmp_path / "d.json")
        assert (loaded.config, loaded.ro_params, loaded.coupling) == (cfg, ds.ro_params, ds.coupling)
        for v in cfg.voltages:  # (n_chips, L) references and (n_chips, T, ceil(L/8)) samples
            for got, want in zip(held(loaded, v), held(ds, v)):
                assert np.array_equal(got, want)


def random_dataset(word_length=16, n_chips=3, samples=8, voltages=(1.25, 1.3), seed=11):
    """A dataset of random bits (no sampling), for file round trips,
    packed as CampaignDataset holds them."""
    rng = np.random.default_rng(seed)
    cfg = chipsim.CampaignConfig(n_chips=n_chips, pairs_per_id=2, word_length=word_length,
                                 samples_per_chip=samples, voltages=voltages)
    return packed_dataset(
        cfg, rng.integers(0, 2, (n_chips, cfg.id_length), dtype=np.uint8),
        {v: rng.integers(0, 2, (n_chips, samples, cfg.id_length), dtype=np.uint8)
         for v in voltages})


class TestDigitBuffer:
    """load_dataset decodes each word into its cell's slot of the packed
    samples, and names the first missing or bad word in cell order."""

    def _saved(self, tmp_path, **kwargs):
        ds = random_dataset(**kwargs)
        csv_path = tmp_path / "dataset.csv"
        save_dataset(ds, csv_path, tmp_path / "dataset.json")
        return ds, csv_path, csv_path.read_text().splitlines()

    def _metrics_error(self, tmp_path, csv_path, lines, capsys) -> str:
        csv_path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert cli.main(["metrics", str(csv_path), "--out", str(tmp_path / "m")]) == 3
        return capsys.readouterr().err

    def test_odd_digit_width_shuffled_rows_round_trip(self, tmp_path):
        ds, csv_path, lines = self._saved(tmp_path, word_length=9)  # 18 bits, 5 digits
        assert len(lines[1].split(",")[3]) == 5
        body = lines[1:]
        np.random.default_rng(3).shuffle(body)
        csv_path.write_text("\n".join([lines[0], *body]) + "\n")
        loaded = load_dataset(csv_path, tmp_path / "dataset.json")
        for v in ds.config.voltages:
            (got_refs, got_cells), (refs, cells) = held(loaded, v), held(ds, v)
            assert np.array_equal(got_refs, refs)
            assert np.array_equal(got_cells, cells)

    @pytest.mark.parametrize("word", ["fffffe0\uff17", "fffffe0"],
                             ids=["non_ascii", "seven_digits"])
    def test_bad_word_mid_file_names_its_cell(self, tmp_path, capsys, word):
        _, csv_path, lines = self._saved(tmp_path)
        mid = len(lines) // 2
        c, v, t, _ = lines[mid].split(",")
        lines[mid] = ",".join([c, v, t, word])
        err = self._metrics_error(tmp_path, csv_path, lines, capsys)
        assert f"CSV line for chip {c} at {v} V, sample {t}: bad hex word {word!r}" in err

    @pytest.mark.parametrize("word_length, word, message", [
        (9, "7ffff", "hex word does not fit in 18 bits"),
        (16, "ffff fe0", "non-hexadecimal number found in fromhex() arg at position 8"),
        (16, "fffffg07", "non-hexadecimal number found in fromhex() arg at position 5"),
        (16, "ffff ffff", "hex words of a 32-bit ID must have 8 digits"),
    ], ids=["pad_bit_set", "whitespace", "non_hex_digit", "whitespace_all_digits"])
    def test_undecodable_word_mid_file_names_its_cell(self, tmp_path, capsys, word_length,
                                                      word, message):
        _, csv_path, lines = self._saved(tmp_path, word_length=word_length)
        mid = len(lines) // 2
        c, v, t, _ = lines[mid].split(",")
        lines[mid] = ",".join([c, v, t, word])
        err = self._metrics_error(tmp_path, csv_path, lines, capsys)
        cell = f"CSV line for chip {c} at {v} V, sample {t}"
        assert f"{cell}: bad hex word {word!r}: {message}" in err

    def test_missing_cell_named(self, tmp_path, capsys):
        _, csv_path, lines = self._saved(tmp_path)
        c, v, t, _ = lines.pop(len(lines) // 2).split(",")
        err = self._metrics_error(tmp_path, csv_path, lines, capsys)
        assert f"CSV line for chip {c} at {v} V, sample {t}: missing" in err


class TestPackedSamples:
    @pytest.mark.parametrize("length", [18, 31, 32, 34])  # 6, 1, 0 and 6 pad bits per word
    def test_loaded_reports_match_the_unpacked_grid(self, tmp_path, length):
        pairs = 2 - length % 2
        rng = np.random.default_rng(length)
        cfg = chipsim.CampaignConfig(n_chips=4, pairs_per_id=pairs, word_length=length // pairs,
                                     samples_per_chip=60, voltages=(1.25, 1.3))
        refs = rng.integers(0, 2, (4, length), dtype=np.uint8)
        flips = {v: (rng.random((4, 60, length)) < 0.05).astype(np.uint8) for v in cfg.voltages}
        grid = {v: refs[:, None] ^ flips[v] for v in cfg.voltages}
        ds = packed_dataset(cfg, refs, grid)
        save_dataset(ds, tmp_path / "d.csv", tmp_path / "d.json")
        loaded = load_dataset(tmp_path / "d.csv", tmp_path / "d.json")
        assert held(loaded, 1.3)[1].shape == (4, 60, -(-length // 8))
        assert sum(len(cells[1]) for _, cells in loaded) == 4 * 60 * -(-length // 8)
        grid_bits = {v: grid[v].tolist() for v in cfg.voltages}
        for post_bch in (False, True) if length >= 31 else (False,):
            got = metrics.compute_report(loaded, post_bch=post_bch)
            want = report_formula(refs.tolist(), grid_bits, ds.ro_params.reference_voltage,
                                  post_bch)
            assert json.dumps(got.to_json_dict()) == json.dumps(want)

    def test_reports_never_unpack_samples(self, monkeypatch, tmp_path):
        ds = random_dataset(word_length=16)

        def unpack(*args, **kwargs):
            raise AssertionError("samples were unpacked")

        monkeypatch.setattr(np, "unpackbits", unpack)
        for post_bch in (False, True):
            assert sum(metrics.compute_report(ds, post_bch=post_bch).intra) == 24
        assert len(chipsim.voltage_sweep(ds)) == 2
        save_dataset(ds, tmp_path / "d.csv", tmp_path / "d.json")
        assert len((tmp_path / "d.csv").read_text().splitlines()) == 1 + 3 * 2 * 8


class TestChipBlocks:
    """A lazy Campaign, the dataset run_campaign collects and the dataset
    load_dataset reads back yield the same chip blocks, so every consumer
    gives the same output from any of them."""

    def test_every_source_gives_the_same_outputs(self, tmp_path):
        params = ro.RoParams()
        cfg = chipsim.CampaignConfig(voltages=(1.25, 1.3, 1.35), master_seed=31, **FAST)
        lazy = chipsim.Campaign(cfg, params)
        held = chipsim.run_campaign(cfg, params)
        save_dataset(held, tmp_path / "held.csv", tmp_path / "held.json")
        save_dataset(lazy, tmp_path / "lazy.csv", tmp_path / "lazy.json")
        for suffix in ("csv", "json"):
            assert (tmp_path / f"lazy.{suffix}").read_bytes() == \
                (tmp_path / f"held.{suffix}").read_bytes()
        loaded = load_dataset(tmp_path / "held.csv", tmp_path / "held.json")
        sources = [lazy, held, loaded]
        for a, b in zip(lazy, loaded):  # blocks: packed reference, and cells per voltage
            assert len(a[0]) == 4 and bytes(a[0]) == bytes(b[0])
            assert [len(cells) for cells in a[1]] == [20 * 4] * 3
            assert [bytes(cells) for cells in a[1]] == [bytes(cells) for cells in b[1]]
        for post_bch in (False, True):
            dumps = {json.dumps(metrics.compute_report(s, post_bch=post_bch).to_json_dict())
                     for s in sources}
            assert len(dumps) == 1, post_bch
        sweeps = [chipsim.voltage_sweep(s) for s in sources]
        assert sweeps[0] == sweeps[1] == sweeps[2]
        assert [dv for dv, _ in sweeps[0]] == [1.25 - 1.3, 0.0, 1.35 - 1.3]

    @pytest.mark.parametrize("edit, message", [
        (lambda blocks: blocks.pop(), "reference for chip 2"),
        (lambda blocks: blocks.append(blocks[0]), "reference for chip 3"),
        (lambda blocks: blocks[1][1].pop(), "samples at 1.3 V for chip 1"),
        (lambda blocks: blocks[1][1].append(blocks[1][1][0]), "samples at 1.3 V for chip 1"),
        (lambda blocks: blocks.__setitem__(2, (blocks[2][0][:-1], blocks[2][1])),
         "reference for chip 2"),
        (lambda blocks: blocks[0][1].__setitem__(1, blocks[0][1][1] + b"\0"),
         "samples at 1.3 V for chip 0"),
    ], ids=["missing_chip", "extra_chip", "missing_voltage", "extra_voltage",
            "short_reference", "long_cell"])
    def test_incomplete_dataset_refused_when_iterated(self, tmp_path, edit, message):
        """Blocks that do not match the config, in number, in voltages or
        in the length of a reference or cell, are refused by every consumer
        before it yields a result or leaves a file."""
        ds = random_dataset()  # 3 chips at (1.25, 1.3) V, 8 samples of 4 bytes
        edit(ds.blocks)
        save = functools.partial(save_dataset, csv_path=tmp_path / "d.csv",
                                 sidecar_path=tmp_path / "d.json")
        for consume in (metrics.compute_report, chipsim.voltage_sweep, save):
            with pytest.raises(DatasetError, match=f"^missing or ragged {re.escape(message)}$"):
                consume(ds)
        assert sorted(tmp_path.iterdir()) == []


class TestPostBchDistributions:
    def test_post_bch_mass_at_zero_improves(self):
        params = ro.RoParams(jitter_sigma=0.001)
        ds, _, _ = small_campaign(params=params, n_chips=6,
                                  samples_per_chip=80, master_seed=20260809)
        raw_intra = metrics.compute_report(ds, post_bch=False).intra
        post = metrics.compute_report(ds, post_bch=True)
        post_intra, post_inter = post.intra, post.inter
        assert post_intra[0] / sum(post_intra) > raw_intra[0] / sum(raw_intra)
        assert len(post_intra) == len(post_inter) == 31 + 1

    def test_decode_failure_at_the_reference_voltage(self, tmp_path):
        """A hand-built 32-bit dataset at V0 = 1.3 V: chip 0's sample 1
        carries 4 errors and its sample 4 carries 3, all within the 31
        protected bits.  The 3 errors are corrected; the 4 are more than
        the code's T = 3, so the word fails to decode and passes through."""
        rng = np.random.default_rng(21)
        cfg = chipsim.CampaignConfig(n_chips=2, pairs_per_id=2, word_length=16,
                                     samples_per_chip=6, voltages=(1.3,))
        refs = rng.integers(0, 2, (2, 32), dtype=np.uint8)
        samples = np.repeat(refs[:, None], 6, axis=1)
        samples[0, 1, [0, 7, 15, 30]] ^= 1
        samples[0, 4, [3, 12, 28]] ^= 1
        ds = packed_dataset(cfg, refs, {1.3: samples})
        raw = metrics.compute_report(ds, post_bch=False)
        post = metrics.compute_report(ds, post_bch=True)
        assert raw.intra[0] == 10 and raw.intra[3] == raw.intra[4] == 1
        assert post.intra[0] == 11 and post.intra[4] == 1
        assert post.reliability_pct_per_chip == {0: 100.0 * (1 - 4 / (31 * 6)), 1: 100.0}
        assert post.reliability_pct_mean < 100.0
        want = report_formula(refs.tolist(), {1.3: samples.tolist()}, 1.3, True)
        assert post.to_json_dict() == want
        save_dataset(ds, tmp_path / "d.csv", tmp_path / "d.json")
        out = tmp_path / "post"
        assert cli.main(["metrics", str(tmp_path / "d.csv"), "--out", str(out),
                         "--post-bch"]) == 0
        assert (out / "report.json").read_text() == json.dumps(want, indent=2) + "\n"


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
