import json

import numpy as np
import pytest

from ropuf import bch, cli, ro
from ropuf.config import from_dict, load, to_dict


def write_config(path, n_chips=3, samples=10, voltages=(1.3,), seed=5,
                 coupling=None, pairs_per_id=2, post_bch=False, **ro_overrides):
    ro_params = {
        "nominal_period_s": 1e-9,
        "process_sigma": 0.04,
        "jitter_sigma": 0.0003,
        "voltage_sensitivity_per_v": 0.5,
        "voltage_sensitivity_sigma_per_v": 0.15,
        "reference_voltage_v": 1.3,
    }
    ro_params.update(ro_overrides)
    config = {
        "ro": ro_params,
        "campaign": {
            "n_chips": n_chips,
            "pairs_per_id": pairs_per_id,
            "word_length": 16,
            "samples_per_chip": samples,
            "enroll_repetitions": 9,
            "voltages_v": list(voltages),
            "master_seed": seed,
        },
        "coupling": coupling or {"mode": "none"},
        "flags": {"post_bch": post_bch, "emit_histograms": True, "emit_sweep": False},
    }
    path.write_text(json.dumps(config, indent=2))
    return config


class TestSimulate:
    def test_minimal_run_row_count(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        write_config(cfg, n_chips=2, samples=10, voltages=(1.25, 1.3))
        assert cli.main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        rows = (tmp_path / "o" / "dataset.csv").read_text().strip().splitlines()
        assert len(rows) == 1 + 2 * 2 * 10  # header + chips*voltages*samples

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = tmp_path / "run.json"
        write_config(cfg)
        cli.main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "a")])
        cli.main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "b")])
        for name in ("dataset.csv", "dataset.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_bad_id_length_names_field(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        config = write_config(cfg)
        config["campaign"]["id_length"] = 31
        cfg.write_text(json.dumps(config))
        assert cli.main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "id_length" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        rc = cli.main(["simulate", "--config", str(tmp_path / "nope.json"),
                       "--out", str(tmp_path / "o")])
        assert rc == 2

    @pytest.mark.parametrize("voltages", [(1.25, 1.3, 1.25), (1.25, 1.35)],
                             ids=["duplicate_voltage", "no_reference_voltage"])
    def test_bad_voltage_grid_fails_before_writing(self, tmp_path, capsys, voltages):
        cfg = tmp_path / "run.json"
        write_config(cfg, voltages=voltages)
        out = tmp_path / "o"
        assert cli.main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
        assert "voltages_v" in capsys.readouterr().err
        assert not (out / "dataset.csv").exists()

    def test_post_bch_with_short_id_fails_before_writing(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        write_config(cfg, pairs_per_id=1, post_bch=True)
        out = tmp_path / "o"
        assert cli.main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
        assert "post_bch" in capsys.readouterr().err
        assert not (out / "dataset.csv").exists()

    def test_threads_accepted_and_ignored(self, tmp_path):
        cfg = tmp_path / "run.json"
        write_config(cfg)
        for threads in ("1", "64"):
            assert cli.main(["simulate", "--config", str(cfg), "--out", str(tmp_path / threads),
                             "--threads", threads]) == 0
        for name in ("dataset.csv", "dataset.json"):
            assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "64" / name).read_bytes()

    def test_threads_below_one_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        write_config(cfg)
        assert cli.main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o"),
                         "--threads", "0"]) == 2
        assert "threads" in capsys.readouterr().err

    def test_negative_seed_fails_before_any_directory(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        write_config(cfg)
        out = tmp_path / "o"
        assert cli.main(["simulate", "--config", str(cfg), "--out", str(out),
                         "--seed", "-1"]) == 2
        assert "master_seed" in capsys.readouterr().err
        assert not out.exists()

    def test_seed_override_changes_dataset(self, tmp_path):
        cfg = tmp_path / "run.json"
        write_config(cfg)
        cli.main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "a")])
        cli.main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "b"),
                  "--seed", "321"])
        assert (tmp_path / "a" / "dataset.csv").read_bytes() != \
            (tmp_path / "b" / "dataset.csv").read_bytes()


def _set_reference(chip, voltage, word):
    """Sidecar edit: references[chip][voltage] = word(chip 0's 1.3 V reference)."""
    def corrupt(sidecar):
        hex_word = sidecar["references"]["0"]["1.3"]
        sidecar["references"].setdefault(chip, {})[voltage] = word(hex_word)
    return corrupt


def _set_word(word):
    """CSV row edit: the hex word w becomes word(w)."""
    return lambda line: line.rsplit(",", 1)[0] + "," + word(line.rsplit(",", 1)[1])


class TestMetrics:
    def _simulated(self, tmp_path, **kwargs):
        cfg = tmp_path / "run.json"
        write_config(cfg, **kwargs)
        out = tmp_path / "sim"
        assert cli.main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        return out / "dataset.csv"

    def test_identity_dataset_percentages(self, tmp_path, capsys):
        # zero variation: clone chips, zero jitter
        csv_path = self._simulated(tmp_path, process_sigma=0.0, jitter_sigma=0.0,
                                   voltage_sensitivity_sigma_per_v=0.0)
        out = tmp_path / "m"
        assert cli.main(["metrics", str(csv_path), "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "Uniqueness     0.00" in text
        assert "Reliability  100.00" in text
        report = json.loads((out / "report.json").read_text())
        assert report["uniqueness_pct"] == 0.0
        assert report["bch_stage"] == "raw"
        assert (out / "histograms.csv").exists()

    def test_golden_small_dataset_matches_oracle(self, tmp_path):
        import sys
        sys.path.insert(0, str(tmp_path.parent))
        from oracles import uniqueness_formula
        csv_path = self._simulated(tmp_path, n_chips=4, samples=6)
        out = tmp_path / "m"
        assert cli.main(["metrics", str(csv_path), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        sidecar = json.loads((csv_path.with_suffix(".json")).read_text())
        refs = []
        for c in sorted(sidecar["references"], key=int):
            hexword = sidecar["references"][c]["1.3"]
            value = int(hexword, 16)
            refs.append([(value >> (32 - 1 - i)) & 1 for i in range(32)])
        assert report["uniqueness_pct"] == pytest.approx(
            uniqueness_formula(refs, 32), rel=1e-12)

    def test_missing_dataset_is_data_error(self, tmp_path):
        assert cli.main(["metrics", str(tmp_path / "no.csv"), "--out", str(tmp_path)]) == 3

    @pytest.mark.parametrize("corrupt,where", [
        (lambda s: s.pop("references"), None),
        (lambda s: s.update(references=list(s["references"].values())), None),
        (_set_reference("0", "1.3", lambda w: "f" + w), None),
        (_set_reference("0", "1.3", lambda w: "0x" + w), None),
        (_set_reference("0", "1.3", lambda w: " " + w[:4] + "_" + w[4:]), None),
        (_set_reference("0", "1.3", lambda w: w[1:]), None),
        (_set_reference("99", "1.3", lambda w: w), "['99']['1.3']"),
        (_set_reference("0", "1.35", lambda w: w), "['0']['1.35']"),
        (_set_reference("0", "1.30", lambda w: w), "['0']['1.30']"),
    ], ids=["missing_references", "references_as_list", "reference_hex_too_wide",
            "reference_hex_0x_prefix", "reference_hex_space_underscore",
            "reference_hex_one_digit_short", "reference_chip_outside_grid",
            "reference_voltage_outside_grid", "reference_duplicate_voltage"])
    def test_bad_sidecar_is_data_error(self, tmp_path, capsys, corrupt, where):
        csv_path = self._simulated(tmp_path)
        sidecar_path = csv_path.with_suffix(".json")
        sidecar = json.loads(sidecar_path.read_text())
        corrupt(sidecar)
        sidecar_path.write_text(json.dumps(sidecar))
        capsys.readouterr()
        assert cli.main(["metrics", str(csv_path), "--out", str(tmp_path / "m")]) == 3
        err = capsys.readouterr().err
        assert "data error:" in err
        assert where is None or where in err

    # Line 2 of the file is the row edited; an appended row is line 3.
    @pytest.mark.parametrize("corrupt,where", [
        (lambda line: "0,1.3", None),
        (lambda line: line + ",0", None),
        (lambda line: "x" + line, None),
        (lambda line: line.replace(",1.3,", ",volts,"), None),
        (lambda line: line.replace(",0,", ",first,"), None),
        (lambda line: line[:-1] + "z", None),
        (_set_word(lambda w: "1" + w), None),
        (_set_word(lambda w: "0x" + w), None),
        (_set_word(lambda w: " " + w[:4] + "_" + w[4:]), None),
        (_set_word(lambda w: w[1:]), None),
        (lambda line: line + "\n99,1.3,0,ffffffff", "CSV line 3"),
        (lambda line: line + "\n0,1.35,0,ffffffff", "CSV line 3"),
        (lambda line: line + "\n0,1.3,10,ffffffff", "CSV line 3"),
        (lambda line: line + "\n0,1.3,-1,ffffffff", "CSV line 3"),
        (lambda line: line + "\n" + line, "CSV line 3"),
        (lambda line: "+" + line, "CSV line 2"),
        (lambda line: "\u0660" + line[1:], "CSV line 2"),
        (lambda line: line.replace(",1.3,", ", 1.30,"), "CSV line 2"),
        (lambda line: line.replace(",1.3,", ",+1.3,"), "CSV line 2"),
        (lambda line: line.replace(",1.3,", ",1.3 ,"), "CSV line 2"),
        (lambda line: line.replace(",1.3,0,", ",1.3,0_0,"), "CSV line 2"),
    ], ids=["missing_fields", "extra_field", "non_numeric_chip", "non_numeric_voltage",
            "non_numeric_index", "bad_hex", "hex_too_wide", "hex_0x_prefix",
            "hex_space_underscore", "hex_one_digit_short", "chip_outside_grid",
            "voltage_outside_grid", "sample_outside_grid", "negative_sample",
            "duplicate_row", "chip_plus_sign", "chip_non_ascii_digit",
            "voltage_leading_space", "voltage_plus_sign", "voltage_trailing_space",
            "index_underscore"])
    def test_bad_csv_row_is_data_error(self, tmp_path, capsys, corrupt, where):
        csv_path = self._simulated(tmp_path)
        lines = csv_path.read_text().splitlines()
        assert lines[1].startswith("0,1.3,0,")
        lines[1] = corrupt(lines[1])
        csv_path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert cli.main(["metrics", str(csv_path), "--out", str(tmp_path / "m")]) == 3
        err = capsys.readouterr().err
        assert "data error:" in err
        assert where is None or where in err

    @pytest.mark.parametrize("version", [None, 1, 2])
    def test_stream_versions_1_and_2_load(self, tmp_path, version):
        csv_path = self._simulated(tmp_path)
        sidecar_path = csv_path.with_suffix(".json")
        sidecar = json.loads(sidecar_path.read_text())
        assert sidecar["stream_version"] == 2
        if version is None:
            del sidecar["stream_version"]  # written before the key existed: version 1
        else:
            sidecar["stream_version"] = version
        sidecar_path.write_text(json.dumps(sidecar))
        assert cli.main(["metrics", str(csv_path), "--out", str(tmp_path / "m")]) == 0

    def test_post_bch_flag(self, tmp_path):
        csv_path = self._simulated(tmp_path)
        out = tmp_path / "m"
        assert cli.main(["metrics", str(csv_path), "--out", str(out), "--post-bch"]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["bch_stage"] == "post_bch"
        assert report["id_length"] == 31


class TestSweep:
    def test_emits_series_and_fit(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        write_config(cfg, n_chips=4, samples=15, voltages=(1.25, 1.3, 1.35))
        out = tmp_path / "s"
        assert cli.main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        lines = (out / "sweep.csv").read_text().strip().splitlines()
        assert lines[0] == "delta_v,abs_delta_v,hd_shift"
        assert len(lines) == 4
        fit = json.loads((out / "sweep.json").read_text())["fit_vs_abs_dv"]
        assert set(fit) == {"slope", "intercept", "r2"}

    def test_single_voltage_rejected(self, tmp_path):
        cfg = tmp_path / "run.json"
        write_config(cfg, voltages=(1.3,))
        assert cli.main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "s")]) == 2


class TestBchSelftest:
    def test_fresh_build_passes(self, capsys):
        assert cli.main(["bch-selftest", "--trials", "200"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert out.count("PASS") == 8

    def test_negative_trials_is_config_error(self, capsys):
        assert cli.main(["bch-selftest", "--trials", "-1"]) == 2
        assert "--trials" in capsys.readouterr().err

    @pytest.mark.parametrize("damage", ["drop_leader", "swap_leaders", "weight_4_leader"])
    def test_broken_leader_table_exits_4(self, monkeypatch, capsys, damage):
        byte_syn, leaders = bch._decoder_tables(bch.GENERATOR)
        broken = leaders.copy()
        held = np.flatnonzero(leaders > 0)
        if damage == "drop_leader":
            broken[held[-1]] = -1
        elif damage == "swap_leaders":
            broken[held[[0, 1]]] = leaders[held[[1, 0]]]
        else:
            broken[np.flatnonzero(leaders < 0)[0]] = 0b1111
        monkeypatch.setattr(bch, "_decoder_tables", lambda generator: (byte_syn, broken))
        assert cli.main(["bch-selftest", "--trials", "10"]) == 4
        assert "FAIL  coset-leader table" in capsys.readouterr().out

    def test_tampered_generator_exits_4(self, monkeypatch, capsys):
        monkeypatch.setattr(bch, "GENERATOR", bch.GENERATOR ^ (1 << 3))
        assert cli.main(["bch-selftest", "--trials", "10"]) == 4
        assert "FAIL" in capsys.readouterr().out


class TestCost:
    def test_default_table(self, capsys):
        assert cli.main(["cost"]) == 0
        out = capsys.readouterr().out
        assert "2000" in out and out.index("2000") < out.index("8")
        assert "3240" in out and "2048" in out

    def test_doubling_bits_doubles_cycles(self, capsys):
        cli.main(["cost", "--bits", "256", "--json"])
        data = json.loads(capsys.readouterr().out)
        assert data["waveform_ro_puf"]["clock_cycles"] == 16
        assert data["conventional_ro_puf"]["clock_cycles"] == 4096

    def test_free_ff_override(self, capsys):
        cli.main(["cost", "--per-ff", "0", "--json"])
        data = json.loads(capsys.readouterr().out)
        assert data["waveform_ro_puf"]["transistors"] == 80

    def test_negative_override_is_config_error(self, capsys):
        assert cli.main(["cost", "--per-ff", "-3"]) == 2


# Each case exited 0, exited with the wrong code or message, or raised a
# traceback before the run config and the sidecar shared one schema.
RUN_CONFIG_CASES = {
    "n_chips_string": (lambda c: c["campaign"].update(n_chips="3"), "n_chips"),
    "n_chips_float": (lambda c: c["campaign"].update(n_chips=3.0), "n_chips"),
    "samples_fractional": (lambda c: c["campaign"].update(samples_per_chip=10.5),
                           "samples_per_chip"),
    "voltages_string": (lambda c: c["campaign"].update(voltages_v="1.3"), "voltages_v"),
    "voltages_number": (lambda c: c["campaign"].update(voltages_v=1.3), "voltages_v"),
    "voltages_of_strings": (lambda c: c["campaign"].update(voltages_v=["1.3"]), "voltages_v"),
    "ro_list": (lambda c: c.update(ro=[]), "config.ro"),
    "campaign_list": (lambda c: c.update(campaign=[1]), "config.campaign"),
    "jitter_string": (lambda c: c["ro"].update(jitter_sigma="0.01"), "jitter_sigma"),
    "reference_voltage_string": (lambda c: c["ro"].update(reference_voltage_v="1.3"),
                                 "reference_voltage_v"),
    "flags_list": (lambda c: c.update(flags=[]), "config.flags"),
    "coupling_list": (lambda c: c.update(coupling=[]), "config.coupling"),
    "strength_string": (lambda c: c.update(coupling={"mode": "capacitive", "strength": "0.5"}),
                        "strength"),
    "post_bch_string": (lambda c: c["flags"].update(post_bch="false"), "post_bch"),
    "master_seed_string": (lambda c: c["campaign"].update(master_seed="5"), "master_seed"),
    "field_typo": (lambda c: c["campaign"].update(n_chip=3), "n_chip"),
}
SIDECAR_CASES = {
    "id_length_40": (lambda s: s["config"]["campaign"].update(id_length=40), "id_length"),
    "word_length_8": (lambda s: s["config"]["campaign"].update(word_length=8), "word_length"),
    "jitter_string": (lambda s: s["config"]["ro"].update(jitter_sigma="x"), "jitter_sigma"),
    "n_chips_string": (lambda s: s["config"]["campaign"].update(n_chips="3"), "n_chips"),
    "bad_coupling_mode": (lambda s: s["config"]["coupling"].update(mode="sideways"),
                          "coupling mode"),
    "one_chip": (lambda s: s["config"]["campaign"].update(n_chips=1), "n_chips"),
    "reference_voltage_off_grid": (lambda s: s["config"]["ro"].update(reference_voltage_v=1.25),
                                   "reference_voltage_v"),
    "master_seed_mismatch": (lambda s: s.update(master_seed=6), "master_seed"),
    "stream_version_3": (lambda s: s.update(stream_version=3), "stream_version"),
    "stream_version_0": (lambda s: s.update(stream_version=0), "stream_version"),
    "stream_version_string": (lambda s: s.update(stream_version="2"), "stream_version"),
    "stream_version_true": (lambda s: s.update(stream_version=True), "stream_version"),
    "stream_version_float": (lambda s: s.update(stream_version=2.0), "stream_version"),
}


class TestRunConfig:
    def test_round_trip_identical_structure(self, tmp_path):
        cfg_path = tmp_path / "run.json"
        write_config(cfg_path, coupling={"mode": "capacitive", "strength": 0.7})
        parsed = load(cfg_path)
        assert from_dict(to_dict(parsed)) == parsed

    def test_capacitive_defaults_documented_strength(self):
        rc = from_dict({
            "ro": json.loads(json.dumps({
                "nominal_period_s": 1e-9, "process_sigma": 0.04,
                "jitter_sigma": 0.0003, "voltage_sensitivity_per_v": 0.5,
                "voltage_sensitivity_sigma_per_v": 0.15, "reference_voltage_v": 1.3})),
            "campaign": {"n_chips": 2, "pairs_per_id": 2, "word_length": 16,
                         "samples_per_chip": 1, "enroll_repetitions": 1,
                         "voltages_v": [1.3], "master_seed": 0},
            "coupling": {"mode": "capacitive"},
        })
        assert rc.coupling.strength == ro.DEFAULT_CAPACITIVE_STRENGTH

    @pytest.mark.parametrize("target,mutate,field", [
        pytest.param(target, mutate, field, id=f"{target}-{name}")
        for target, cases in (("config", RUN_CONFIG_CASES), ("sidecar", SIDECAR_CASES))
        for name, (mutate, field) in cases.items()])
    def test_malformed_config_names_field(self, tmp_path, capsys, target, mutate, field):
        cfg_path, out = tmp_path / "run.json", tmp_path / "o"
        config = write_config(cfg_path)
        if target == "config":
            mutate(config)
            cfg_path.write_text(json.dumps(config))
            assert cli.main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 2
            assert not (out / "dataset.csv").exists()
            err = capsys.readouterr().err
        else:
            assert cli.main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 0
            sidecar = json.loads((out / "dataset.json").read_text())
            mutate(sidecar)
            (out / "dataset.json").write_text(json.dumps(sidecar))
            capsys.readouterr()
            assert cli.main(["metrics", str(out / "dataset.csv"),
                             "--out", str(tmp_path / "m")]) == 3
            err = capsys.readouterr().err
            assert "data error:" in err
        assert field in err
