import functools
import json

import numpy as np
import pytest

from conftest import held, packed_dataset
from oracles import report_formula
from ropuf import chipsim, cli, config, metrics, ro
from ropuf.errors import ConfigurationError, DatasetError
from ropuf.sampler import unpack_rows

FAST = dict(n_chips=4, samples_per_chip=20, enroll_repetitions=9)


def small_campaign(master_seed=5, voltages=(1.3,), params=None,
                   coupling=ro.Coupling.none(), **overrides):
    params = params or ro.RoParams()
    cfg = chipsim.CampaignConfig(voltages=voltages, master_seed=master_seed,
                                 **{**FAST, **overrides})
    chips = chipsim.build_population(cfg, params, coupling)
    return chipsim.run_campaign(chips, cfg, params, coupling), cfg, params


class TestPopulation:
    def test_shapes(self):
        cfg = chipsim.CampaignConfig(n_chips=10, pairs_per_id=2, word_length=16)
        chips = chipsim.build_population(cfg, ro.RoParams())
        assert len(chips) == 10
        assert all(len(c.units) == 2 for c in chips)
        assert cfg.id_length == 32

    def test_same_seed_identical_population(self):
        cfg = chipsim.CampaignConfig(master_seed=77, **FAST)
        a = chipsim.build_population(cfg, ro.RoParams())
        b = chipsim.build_population(cfg, ro.RoParams())
        assert a == b

    def test_zero_process_variation_clones_chips(self):
        params = ro.RoParams(process_sigma=0.0, jitter_sigma=0.0,
                             voltage_sensitivity_sigma=0.0)
        ds, cfg, _ = small_campaign(params=params)
        refs = held(ds, 1.3)[0]
        assert all(np.array_equal(r, refs[0]) for r in refs)
        assert metrics.uniqueness(refs, cfg.id_length) == 0.0

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
        assert report.intra.mass_at(0) == 1.0

    def test_determinism(self):
        a, cfg, _ = small_campaign(master_seed=9)
        b, _, _ = small_campaign(master_seed=9)
        (a_refs, a_cells), (b_refs, b_cells) = held(a, 1.3), held(b, 1.3)
        for c in range(cfg.n_chips):
            assert np.array_equal(a_refs[c], b_refs[c])
            assert np.array_equal(a_cells[c], b_cells[c])

    def test_campaign_checks_before_sampling(self, monkeypatch):
        params = ro.RoParams()
        cfg = chipsim.CampaignConfig(voltages=(1.3,), **FAST)
        chips = chipsim.build_population(cfg, params)
        monkeypatch.setattr(chipsim, "sample_rows", None)  # sampling would raise TypeError
        for args, match in [((chips[:-1], cfg, params), "n_chips"),
                            ((chips, chipsim.CampaignConfig(voltages=(2.8,), **FAST), params),
                             "model range")]:
            with pytest.raises(ConfigurationError, match=match):
                chipsim.Campaign(*args)

    def test_streams_keyed_by_voltage_value(self):
        # shared voltages give identical words no matter what else is swept
        a, cfg, _ = small_campaign(master_seed=21, voltages=(1.3, 1.25))
        b, _, _ = small_campaign(master_seed=21, voltages=(1.25, 1.35, 1.3))
        for c in range(cfg.n_chips):
            for v in (1.25, 1.3):
                (a_refs, a_cells), (b_refs, b_cells) = held(a, v), held(b, v)
                assert np.array_equal(a_refs[c], b_refs[c])
                assert np.array_equal(a_cells[c], b_cells[c])

    def test_inter_chip_words_look_independent(self):
        ds, cfg, _ = small_campaign(master_seed=2, n_chips=12)
        u = metrics.uniqueness(held(ds, 1.3)[0], cfg.id_length)
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
        with pytest.raises(ValueError):
            chipsim.voltage_sweep(ds, reference_voltage=1.35)

    def test_mismatch_shifts_grow_with_offset(self):
        params = ro.RoParams()
        cfg = chipsim.CampaignConfig(n_chips=20, samples_per_chip=40,
                                     enroll_repetitions=19,
                                     voltages=(1.2, 1.3, 1.4), master_seed=6)
        chips = chipsim.build_population(cfg, params)
        ds = chipsim.run_campaign(chips, cfg, params)
        series = dict(chipsim.voltage_sweep(ds))
        shifts = {round(dv, 2): s for dv, s in series.items()}
        assert shifts[-0.1] > 0.0 and shifts[0.1] > 0.0
        fit = chipsim.fit_sweep(list(series.items()))
        assert fit["slope"] > 0.0


class TestSerialization:
    def test_round_trip(self, tmp_path):
        ds, cfg, _ = small_campaign(voltages=(1.25, 1.3))
        csv_path, json_path = tmp_path / "d.csv", tmp_path / "d.json"
        chipsim.save_dataset(ds, csv_path, json_path)
        loaded = chipsim.load_dataset(csv_path, json_path)
        assert loaded.config == cfg
        assert loaded.ro_params == ds.ro_params
        assert loaded.coupling == ds.coupling
        for c in range(cfg.n_chips):
            for v in cfg.voltages:
                (got_refs, got_cells), (refs, cells) = held(loaded, v), held(ds, v)
                assert np.array_equal(got_refs[c], refs[c])
                assert np.array_equal(got_cells[c], cells[c])

    def test_rewrite_is_byte_identical(self, tmp_path):
        ds, _, _ = small_campaign()
        chipsim.save_dataset(ds, tmp_path / "a.csv", tmp_path / "a.json")
        chipsim.save_dataset(ds, tmp_path / "b.csv", tmp_path / "b.json")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_incomplete_dataset_rejected(self, tmp_path):
        ds, _, _ = small_campaign()
        csv_path, json_path = tmp_path / "d.csv", tmp_path / "d.json"
        chipsim.save_dataset(ds, csv_path, json_path)
        lines = csv_path.read_text().splitlines()
        csv_path.write_text("\n".join(lines[:-3]) + "\n")  # drop rows
        with pytest.raises(DatasetError):
            chipsim.load_dataset(csv_path, json_path)

    def test_config_dict_round_trip(self):
        run = config.RunConfig(
            ro_params=ro.RoParams(jitter_sigma=0.002),
            campaign=chipsim.CampaignConfig(voltages=(1.2, 1.3), master_seed=3, **FAST),
            coupling=ro.Coupling.capacitive(0.7))
        assert config.from_dict(config.to_dict(run)) == run


def random_dataset(word_length=16, n_chips=3, samples=8, voltages=(1.25, 1.3), seed=11):
    """A dataset of random bits (no sampling), for file round trips,
    packed as CampaignDataset holds them."""
    rng = np.random.default_rng(seed)
    cfg = chipsim.CampaignConfig(n_chips=n_chips, pairs_per_id=2, word_length=word_length,
                                 samples_per_chip=samples, voltages=voltages)
    shape = (n_chips, cfg.id_length)
    return packed_dataset(
        cfg, {v: rng.integers(0, 2, shape, dtype=np.uint8) for v in voltages},
        {v: rng.integers(0, 2, (n_chips, samples, cfg.id_length), dtype=np.uint8)
         for v in voltages})


class TestDigitBuffer:
    """load_dataset decodes each word into its cell's slot of the packed
    samples, and names the first missing or bad word in cell order."""

    def _saved(self, tmp_path, **kwargs):
        ds = random_dataset(**kwargs)
        csv_path = tmp_path / "dataset.csv"
        chipsim.save_dataset(ds, csv_path, tmp_path / "dataset.json")
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
        loaded = chipsim.load_dataset(csv_path, tmp_path / "dataset.json")
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
        refs = {v: rng.integers(0, 2, (4, length), dtype=np.uint8) for v in cfg.voltages}
        flips = {v: (rng.random((4, 60, length)) < 0.05).astype(np.uint8) for v in cfg.voltages}
        grid = {v: refs[v][:, None] ^ flips[v] for v in cfg.voltages}
        ds = packed_dataset(cfg, refs, grid)
        chipsim.save_dataset(ds, tmp_path / "d.csv", tmp_path / "d.json")
        loaded = chipsim.load_dataset(tmp_path / "d.csv", tmp_path / "d.json")
        assert held(loaded, 1.3)[1].shape == (4, 60, -(-length // 8))
        assert len(loaded.samples[1.3]) == 4 * 60 * -(-length // 8)
        ref_bits = {v: refs[v].tolist() for v in cfg.voltages}
        grid_bits = {v: grid[v].tolist() for v in cfg.voltages}
        for post_bch in (False, True) if length >= 31 else (False,):
            for v in cfg.voltages:
                got = metrics.compute_report(loaded, voltage=v, post_bch=post_bch)
                want = report_formula(ref_bits, grid_bits, v, ds.ro_params.reference_voltage,
                                      post_bch)
                assert json.dumps(got.to_json_dict()) == json.dumps(want)

    def test_reports_never_unpack_samples(self, monkeypatch, tmp_path):
        ds = random_dataset(word_length=16)

        def unpack(*args, **kwargs):
            raise AssertionError("samples were unpacked")

        monkeypatch.setattr(np, "unpackbits", unpack)
        for post_bch in (False, True):
            for v in ds.config.voltages:
                assert metrics.compute_report(ds, voltage=v, post_bch=post_bch).intra.total == 24
        assert len(chipsim.voltage_sweep(ds)) == 2
        chipsim.save_dataset(ds, tmp_path / "d.csv", tmp_path / "d.json")
        assert len((tmp_path / "d.csv").read_text().splitlines()) == 1 + 3 * 2 * 8


class TestChipBlocks:
    """A lazy Campaign, the dataset run_campaign collects and the dataset
    load_dataset reads back yield the same chip blocks, so every consumer
    gives the same output from any of them."""

    def test_every_source_gives_the_same_outputs(self, tmp_path):
        params = ro.RoParams()
        cfg = chipsim.CampaignConfig(voltages=(1.25, 1.3, 1.35), master_seed=31, **FAST)
        chips = chipsim.build_population(cfg, params)
        lazy = chipsim.Campaign(chips, cfg, params)
        held = chipsim.run_campaign(chips, cfg, params)
        chipsim.save_dataset(held, tmp_path / "held.csv", tmp_path / "held.json")
        chipsim.save_dataset(lazy, tmp_path / "lazy.csv", tmp_path / "lazy.json")
        for suffix in ("csv", "json"):
            assert (tmp_path / f"lazy.{suffix}").read_bytes() == \
                (tmp_path / f"held.{suffix}").read_bytes()
        loaded = chipsim.load_dataset(tmp_path / "held.csv", tmp_path / "held.json")
        sources = [lazy, held, loaded]
        for a, b in zip(lazy, loaded):  # blocks: per voltage, packed reference and cells
            assert [len(r) for r in a[0]] == [4] * 3
            assert [bytes(r) for r in a[0]] == [bytes(r) for r in b[0]]
            assert [len(cells) for cells in a[1]] == [20 * 4] * 3
            assert [bytes(cells) for cells in a[1]] == [bytes(cells) for cells in b[1]]
        for post_bch in (False, True):
            for v in (1.3, 1.35):
                dumps = {json.dumps(metrics.compute_report(s, voltage=v, post_bch=post_bch)
                                    .to_json_dict()) for s in sources}
                assert len(dumps) == 1, (post_bch, v)
        sweeps = [chipsim.voltage_sweep(s) for s in sources]
        assert sweeps[0] == sweeps[1] == sweeps[2]
        assert [dv for dv, _ in sweeps[0]] == [1.25 - 1.3, 0.0, 1.35 - 1.3]

    def test_incomplete_dataset_refused_when_iterated(self, tmp_path):
        ds = random_dataset()
        del ds.samples[1.25]
        save = functools.partial(chipsim.save_dataset, csv_path=tmp_path / "d.csv",
                                 sidecar_path=tmp_path / "d.json")
        for consume in (metrics.compute_report, chipsim.voltage_sweep, save):
            with pytest.raises(DatasetError, match="samples at 1.25 V"):
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
        assert post_intra.mass_at(0) > raw_intra.mass_at(0)
        assert post_intra.length == 31 and post_inter.length == 31

    def test_report_labels(self):
        ds, _, _ = small_campaign()
        raw = metrics.compute_report(ds)
        post = metrics.compute_report(ds, post_bch=True)
        assert raw.bch_stage == "raw" and raw.id_length == 32
        assert post.bch_stage == "post_bch" and post.id_length == 31
        assert raw.voltage == post.voltage == 1.3
