import csv
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from random import Random
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from conftest import packed_dataset
from ropuf import bch, chipsim, cli, cost, ro
from ropuf.config import MAX_ID_BITS, CampaignConfig, from_dict, load, to_dict
from ropuf.dataset import save_dataset
from ropuf.errors import ModelRangeError


def write_config(path, n_chips=3, samples=10, voltages=(1.3,), seed=5,
                 coupling=None, pairs_per_id=2, **ro_overrides):
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
    }
    path.write_text(json.dumps(config, indent=2))
    return config


def _set_reference(chip, voltage, word):
    """Sidecar edit: references[chip][voltage] = word(chip 0's 1.3 V reference)."""
    def corrupt(sidecar):
        hex_word = sidecar["references"]["0"]["1.3"]
        sidecar["references"].setdefault(chip, {})[voltage] = word(hex_word)
    return corrupt


def _set_word(word):
    """CSV row edit: the hex word w becomes word(w)."""
    return lambda line: line.rsplit(",", 1)[0] + "," + word(line.rsplit(",", 1)[1])


NESTED_JSON = "[" * 200000 + "]" * 200000  # deeper than json.loads can recurse
BAD_REFERENCE = "sidecar reference for chip 0 at 1.3 V: bad hex word"
BAD_WORD = "CSV line for chip 0 at 1.3 V, sample 0: bad hex word"
BAD_FIELDS = "CSV line 2: chip '0' and index '0' must be digits and voltage"


def _section(prefix: str, command: str, file: str, code: int, rows: dict) -> dict:
    """REFUSALS' rows for {name: (edit, fragment)}, keyed prefix + name."""
    return {prefix + name: (command, file, edit, code, fragment)
            for name, (edit, fragment) in rows.items()}


# Every refusal of a bad input, keyed "test/case" (see cases): the command,
# with any options; the file the case edits ("config", "sidecar" or "csv");
# the edit; the exit code; and a fragment of stderr.  A config or sidecar
# edit changes the parsed file in place or returns the file's whole text; a
# csv edit returns line 2, the first row (an appended row is line 3); an
# edit of None deletes the file.
REFUSALS = {
    "id_length_31": ("simulate", "config", lambda c: c["campaign"].update(id_length=31), 2,
                     "id_length 31 != pairs_per_id*word_length 32"),
    "negative_seed": ("simulate --seed -1", "config", lambda c: None, 2,
                      "master_seed must be >= 0, got -1"),
    "sweep_emit_sweep": ("sweep", "config", lambda c: c.update(flags={"emit_sweep": True})
                         or c["campaign"].update(voltages_v=[1.25, 1.3]), 2,
                         "config.flags.emit_sweep must be false"),
    "missing_dataset": ("metrics", "csv", None, 3, "dataset files not found: "),
    **_section("grid/", "simulate", "config", 2, {
        "duplicate_voltage": (lambda c: c["campaign"].update(voltages_v=[1.25, 1.3, 1.25]),
                              "voltages_v has duplicates"),
        "no_reference_voltage": (lambda c: c["campaign"].update(voltages_v=[1.25, 1.35]),
                                 "voltages_v must include reference_voltage_v 1.3"),
    }),
    # One schema reads a run configuration and a sidecar's config block.
    **_section("schema/config-", "simulate", "config", 2, {
        "n_chips_string": (lambda c: c["campaign"].update(n_chips="3"), "n_chips"),
        "n_chips_float": (lambda c: c["campaign"].update(n_chips=3.0), "n_chips"),
        "samples_fractional": (lambda c: c["campaign"].update(samples_per_chip=10.5),
                               "samples_per_chip"),
        "voltages_string": (lambda c: c["campaign"].update(voltages_v="1.3"), "voltages_v"),
        "voltages_number": (lambda c: c["campaign"].update(voltages_v=1.3), "voltages_v"),
        "voltages_of_strings": (lambda c: c["campaign"].update(voltages_v=["1.3"]),
                                "voltages_v"),
        "ro_list": (lambda c: c.update(ro=[]), "config.ro"),
        "campaign_list": (lambda c: c.update(campaign=[1]), "config.campaign"),
        "jitter_string": (lambda c: c["ro"].update(jitter_sigma="0.01"), "jitter_sigma"),
        "reference_voltage_string": (lambda c: c["ro"].update(reference_voltage_v="1.3"),
                                     "reference_voltage_v"),
        "flags_list": (lambda c: c.update(flags=[]), "config.flags"),
        "coupling_list": (lambda c: c.update(coupling=[]), "config.coupling"),
        "strength_string": (
            lambda c: c.update(coupling={"mode": "capacitive", "strength": "0.5"}), "strength"),
        "strength_for_inverter_loop": (
            lambda c: c.update(coupling={"mode": "inverter_loop", "strength": -5}), "strength"),
        "strength_for_none": (lambda c: c.update(coupling={"mode": "none", "strength": 0.7}),
                              "strength"),
        # `flags` may stay in a run configuration, every flag false.
        "post_bch_string": (lambda c: c.update(flags={"post_bch": "false"}), "post_bch"),
        "post_bch_true": (lambda c: c.update(flags={"post_bch": True}),
                          "config.flags.post_bch must be false (simulate writes only the "
                          "dataset: run `ropuf metrics` or `ropuf sweep`), got True"),
        "emit_sweep_true": (lambda c: c.update(flags={"post_bch": False, "emit_sweep": True}),
                            "config.flags.emit_sweep must be false"),
        "flag_unknown": (lambda c: c.update(flags={"emit_report": False}), "emit_report"),
        "master_seed_string": (lambda c: c["campaign"].update(master_seed="5"), "master_seed"),
        "field_typo": (lambda c: c["campaign"].update(n_chip=3), "n_chip"),
        "deeply_nested": (lambda c: NESTED_JSON, "cannot read config"),
        "nominal_period_huge_int": (lambda c: c["ro"].update(nominal_period_s=10 ** 400),
                                    "nominal_period_s"),
        "voltage_inexact_int": (  # no voltage sensitivity, so the model range admits it
            lambda c: c["ro"].update(voltage_sensitivity_per_v=0,
                                     voltage_sensitivity_sigma_per_v=0)
            or c["campaign"].update(voltages_v=[1.3, 10 ** 20 + 1]), "voltages_v"),
        "pairs_per_id_past_a_dataset_row": (
            lambda c: c["campaign"].update(pairs_per_id=10 ** 12), "pairs_per_id x word_length"),
        "word_length_past_a_dataset_row": (
            lambda c: c["campaign"].update(word_length=10 ** 12), "pairs_per_id x word_length"),
        "id_length_past_str_digits": (  # the mismatch would print 8001 digits
            lambda c: c["campaign"].update(pairs_per_id=10 ** 4000, word_length=10 ** 4000,
                                           id_length=1), "word_length"),
    }),
    **_section("schema/sidecar-", "metrics", "sidecar", 3, {
        "id_length_40": (lambda s: s["config"]["campaign"].update(id_length=40), "id_length"),
        "word_length_8": (lambda s: s["config"]["campaign"].update(word_length=8),
                          "word_length"),
        "jitter_string": (lambda s: s["config"]["ro"].update(jitter_sigma="x"), "jitter_sigma"),
        "n_chips_string": (lambda s: s["config"]["campaign"].update(n_chips="3"), "n_chips"),
        "bad_coupling_mode": (lambda s: s["config"]["coupling"].update(mode="sideways"),
                              "coupling mode"),
        "strength_for_none": (
            lambda s: s["config"]["coupling"].update(mode="none", strength=0.7), "strength"),
        "one_chip": (lambda s: s["config"]["campaign"].update(n_chips=1), "n_chips"),
        "reference_voltage_off_grid": (
            lambda s: s["config"]["ro"].update(reference_voltage_v=1.25), "reference_voltage_v"),
        "master_seed_mismatch": (lambda s: s.update(master_seed=6), "master_seed"),
        "stream_version_4": (lambda s: s.update(stream_version=4), "stream_version"),
        "stream_version_0": (lambda s: s.update(stream_version=0), "stream_version"),
        "stream_version_string": (lambda s: s.update(stream_version="3"), "stream_version"),
        "stream_version_true": (lambda s: s.update(stream_version=True), "stream_version"),
        "stream_version_float": (lambda s: s.update(stream_version=2.0), "stream_version"),
        "deeply_nested": (lambda s: NESTED_JSON, "bad sidecar"),
        "id_past_a_dataset_row": (
            lambda s: s["config"]["campaign"].update(pairs_per_id=2 ** 15 + 1),
            "bad sidecar: pairs_per_id x word_length"),
        "jitter_huge_int": (lambda s: s["config"]["ro"].update(jitter_sigma=10 ** 400),
                            "jitter_sigma"),
    }),
    # The sidecar's references, and the grid it claims.
    **_section("sidecar/", "metrics", "sidecar", 3, {
        "missing_references": (lambda s: s.__delitem__("references"),
                               "sidecar 'references' must map chip ids"),
        "references_as_list": (lambda s: s.update(references=list(s["references"].values())),
                               "sidecar 'references' must map chip ids"),
        "reference_hex_too_wide": (_set_reference("0", "1.3", lambda w: "f" + w), BAD_REFERENCE),
        "reference_hex_0x_prefix": (_set_reference("0", "1.3", lambda w: "0x" + w),
                                    BAD_REFERENCE + " '0x"),
        "reference_hex_space_underscore": (
            _set_reference("0", "1.3", lambda w: " " + w[:4] + "_" + w[4:]),
            BAD_REFERENCE + " ' "),
        "reference_hex_one_digit_short": (_set_reference("0", "1.3", lambda w: w[1:]),
                                          BAD_REFERENCE),
        "reference_chip_outside_grid": (_set_reference("99", "1.3", lambda w: w),
                                        "['99']['1.3']: chip 99 at 1.3 V is outside the grid"),
        "reference_voltage_outside_grid": (_set_reference("0", "1.35", lambda w: w),
                                           "['0']['1.35']: chip 0 at 1.35 V is outside the grid"),
        "reference_duplicate_voltage": (_set_reference("0", "1.30", lambda w: w),
                                        "['0']['1.30']: a second word for chip 0 at 1.3 V"),
        "sidecar_string": (lambda s: '"x"', "bad sidecar: must be a JSON object, not str"),
        "sidecar_list": (lambda s: "[1]", "bad sidecar: must be a JSON object, not list"),
        "sidecar_empty_object": (lambda s: "{}", "bad sidecar: missing key 'config'"),
        "reference_int": (_set_reference("0", "1.3", lambda w: 5),
                          "sidecar reference ['0']['1.3']: 5 must be a hex string"),
        "reference_missing_at_v0": (lambda s: s["references"]["0"].__delitem__("1.3"),
                                    "sidecar reference for chip 0 at 1.3 V: missing"),
        # Claims refused before any buffer is sized from them.
        "samples_claim_past_index_size": (
            lambda s: s["config"]["campaign"].update(samples_per_chip=2**61),
            "bad sidecar: voltages_v x samples_per_chip x ceil(pairs_per_id x word_length / 8): "
            "a chip's samples would hold more than sys.maxsize"),
        "samples_claim_past_file": (
            lambda s: s["config"]["campaign"].update(samples_per_chip=2**40),
            f"= {3 * 2**40} words, but the input holds at most"),
        "chips_claim": (
            lambda s: s["config"]["campaign"].update(n_chips=2**61),
            f"sidecar references: the sidecar claims 1 voltages x {2**61} chips = {2**61} words, "
            "but the input holds at most 3"),
    }),
    **_section("csv/", "metrics", "csv", 3, {
        "missing_fields": (lambda line: "0,1.3", "CSV line 2: not enough values to unpack"),
        "extra_field": (lambda line: line + ",0", "CSV line 2: too many values to unpack"),
        "non_numeric_chip": (lambda line: "x" + line, "CSV line 2: chip 'x0' and index '0' "),
        "non_numeric_voltage": (lambda line: line.replace(",1.3,", ",volts,"),
                                BAD_FIELDS + " 'volts' "),
        "non_numeric_index": (lambda line: line.replace(",0,", ",first,"),
                              "CSV line 2: chip '0' and index 'first' "),
        "bad_hex": (lambda line: line[:-1] + "z", BAD_WORD),
        "hex_too_wide": (_set_word(lambda w: "1" + w), BAD_WORD + " '1"),
        "hex_0x_prefix": (_set_word(lambda w: "0x" + w), BAD_WORD + " '0x"),
        "hex_space_underscore": (_set_word(lambda w: " " + w[:4] + "_" + w[4:]),
                                 BAD_WORD + " ' "),
        "hex_one_digit_short": (_set_word(lambda w: w[1:]), BAD_WORD),
        "chip_outside_grid": (lambda line: line + "\n99,1.3,0,ffffffff",
                              "CSV line 3: chip 99 at 1.3 V, sample 0 is outside the grid"),
        "voltage_outside_grid": (lambda line: line + "\n0,1.35,0,ffffffff",
                                 "CSV line 3: chip 0 at 1.35 V, sample 0 is outside the grid"),
        "sample_outside_grid": (lambda line: line + "\n0,1.3,10,ffffffff",
                                "CSV line 3: chip 0 at 1.3 V, sample 10 is outside the grid"),
        "negative_sample": (lambda line: line + "\n0,1.3,-1,ffffffff",
                            "CSV line 3: chip '0' and index '-1' "),
        "duplicate_row": (lambda line: line + "\n" + line,
                          "CSV line 3: a second word for chip 0 at 1.3 V, sample 0"),
        "chip_plus_sign": (lambda line: "+" + line, "CSV line 2: chip '+0' and index '0' "),
        "chip_non_ascii_digit": (lambda line: "\u0660" + line[1:],
                                 "CSV line 2: chip '\u0660' and index '0' "),
        "voltage_leading_space": (lambda line: line.replace(",1.3,", ", 1.30,"),
                                  BAD_FIELDS + " ' 1.30' "),
        "voltage_plus_sign": (lambda line: line.replace(",1.3,", ",+1.3,"),
                              BAD_FIELDS + " '+1.3' "),
        "voltage_trailing_space": (lambda line: line.replace(",1.3,", ",1.3 ,"),
                                   BAD_FIELDS + " '1.3 ' "),
        "index_underscore": (lambda line: line.replace(",1.3,0,", ",1.3,0_0,"),
                             "CSV line 2: chip '0' and index '0_0' "),
        "field_over_size_limit": (lambda line: line + "f" * 131072,
                                  "CSV line 2: field larger than field limit"),
        # A byte that is not UTF-8, written as the surrogate that stands for it.
        "chip_not_utf8": (lambda line: "\udcff" + line, "CSV line 2: chip '\\udcff0'"),
        "hex_not_utf8": (_set_word(lambda w: w[:3] + "\udcff" + w[4:]), BAD_WORD),
    }),
}


def cases(test: str) -> list:
    """The REFUSALS keys under test/, each as a parameter named by its case."""
    return [pytest.param(key, id=key.partition("/")[2]) for key in REFUSALS
            if key.startswith(test + "/")]


@pytest.fixture(scope="module")
def simulated(tmp_path_factory) -> Path:
    """A directory holding run.json and the dataset simulate wrote from it, sim/."""
    root = tmp_path_factory.mktemp("simulated")
    write_config(root / "run.json")
    assert cli.main(["simulate", "--config", str(root / "run.json"),
                     "--out", str(root / "sim")]) == 0
    return root


@pytest.fixture
def refused(simulated, tmp_path, capsys):
    """check(key): runs REFUSALS[key] on a copy of the simulated files.  The
    command exits with the row's code, its stderr starts with that code's
    prefix and holds the row's fragment, and --out is never created."""
    def check(key):
        command, file, edit, code, fragment = REFUSALS[key]
        shutil.copytree(simulated, tmp_path, dirs_exist_ok=True)
        config, csv_path = tmp_path / "run.json", tmp_path / "sim" / "dataset.csv"
        path = {"config": config, "sidecar": csv_path.with_suffix(".json"), "csv": csv_path}[file]
        if edit is None:
            path.unlink()
        elif file == "csv":
            lines = path.read_text().splitlines()
            assert lines[1].startswith("0,1.3,0,")
            lines[1] = edit(lines[1])
            path.write_text("\n".join(lines) + "\n", errors="surrogateescape")
        else:
            parsed = json.loads(path.read_text())
            path.write_text(edit(parsed) or json.dumps(parsed))
        name, *options = command.split()
        source = [str(csv_path)] if name == "metrics" else ["--config", str(config)]
        out = tmp_path / "out"
        capsys.readouterr()
        assert cli.main([name, *source, "--out", str(out), *options]) == code
        err = capsys.readouterr().err
        assert err.startswith({2: "configuration error: ", 3: "data error: "}[code]), err
        assert fragment in err, err
        assert not out.exists()
    return check


class TestSimulate:
    def test_minimal_run_row_count(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        write_config(cfg, n_chips=2, samples=10, voltages=(1.25, 1.3))
        assert cli.main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        rows = (tmp_path / "o" / "dataset.csv").read_text().strip().splitlines()
        assert len(rows) == 1 + 2 * 2 * 10  # header + chips*voltages*samples

    def test_bad_id_length_names_field(self, refused):
        refused("id_length_31")

    @pytest.mark.parametrize("case", cases("grid"))
    def test_bad_voltage_grid_fails_before_writing(self, refused, case):
        refused(case)

    def test_threads_accepted_and_ignored(self, tmp_path):
        cfg = tmp_path / "run.json"
        write_config(cfg)
        for threads in ("1", "64"):
            assert cli.main(["simulate", "--config", str(cfg), "--out", str(tmp_path / threads),
                             "--threads", threads]) == 0
        for name in ("dataset.csv", "dataset.json"):
            assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "64" / name).read_bytes()

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    def test_threads_help_says_ignored(self, capsys, command):
        with pytest.raises(SystemExit):
            cli.main([command, "--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        assert "accepted and ignored" in help_text and "worker" not in help_text

    def test_negative_seed_fails_before_any_directory(self, refused):
        refused("negative_seed")

    def test_failed_sampling_leaves_no_dataset(self, tmp_path, monkeypatch, capsys):
        """A run that fails while sampling, here on a draw outside the
        model's range (a configuration error), leaves no file in --out and
        any dataset already there as it was."""
        cfg = tmp_path / "run.json"
        write_config(cfg)
        out = tmp_path / "o"
        argv = ["simulate", "--config", str(cfg), "--out", str(out)]
        keyed_rng = chipsim.keyed_rng

        def out_of_range_on_chip_1(seed, tag, chip, *key):
            if chip == 1:
                raise ModelRangeError("period is non-positive")
            return keyed_rng(seed, tag, chip, *key)
        monkeypatch.setattr(chipsim, "keyed_rng", out_of_range_on_chip_1)
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == "configuration error: period is non-positive\n"
        assert sorted(out.iterdir()) == []

        monkeypatch.setattr(chipsim, "keyed_rng", keyed_rng)
        assert cli.main(argv) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        assert set(before) == {"dataset.csv", "dataset.json"}
        monkeypatch.setattr(chipsim, "keyed_rng", out_of_range_on_chip_1)
        assert cli.main([*argv, "--seed", "6"]) == 2
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_seed_override_changes_dataset(self, tmp_path):
        cfg = tmp_path / "run.json"
        write_config(cfg)
        cli.main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "a")])
        cli.main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "b"),
                  "--seed", "321"])
        assert (tmp_path / "a" / "dataset.csv").read_bytes() != \
            (tmp_path / "b" / "dataset.csv").read_bytes()


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

    def test_missing_dataset_is_data_error(self, refused):
        refused("missing_dataset")

    def test_named_sidecar_writes_the_default_report(self, tmp_path, capsys):
        """--sidecar reads a renamed sidecar as the default path reads the
        CSV stem's .json; a named sidecar that is missing exits 3, named."""
        csv_path = self._simulated(tmp_path)
        default, named = tmp_path / "default", tmp_path / "named"
        assert cli.main(["metrics", str(csv_path), "--out", str(default)]) == 0
        renamed = csv_path.with_suffix(".json").rename(tmp_path / "renamed.json")
        assert cli.main(["metrics", str(csv_path), "--out", str(named)]) == 3  # no default now
        assert cli.main(["metrics", str(csv_path), "--sidecar", str(renamed),
                         "--out", str(named)]) == 0
        for name in ("report.json", "histograms.csv"):
            assert (named / name).read_bytes() == (default / name).read_bytes()
        missing = tmp_path / "missing.json"
        capsys.readouterr()
        assert cli.main(["metrics", str(csv_path), "--sidecar", str(missing),
                         "--out", str(tmp_path / "m")]) == 3
        assert str(missing) in capsys.readouterr().err

    @pytest.mark.parametrize("case", cases("sidecar"))
    def test_bad_sidecar_is_data_error(self, refused, case):
        refused(case)

    @pytest.mark.parametrize("case", cases("csv"))
    def test_bad_csv_row_is_data_error(self, refused, case):
        refused(case)

    @pytest.mark.parametrize("version", [None, 1, 2])
    def test_stream_versions_1_and_2_load(self, tmp_path, version):
        csv_path = self._simulated(tmp_path)
        sidecar_path = csv_path.with_suffix(".json")
        sidecar = json.loads(sidecar_path.read_text())
        assert sidecar["stream_version"] == 3
        if version is None:
            del sidecar["stream_version"]  # written before the key existed: version 1
        else:
            sidecar["stream_version"] = version
        sidecar_path.write_text(json.dumps(sidecar))
        assert cli.main(["metrics", str(csv_path), "--out", str(tmp_path / "m")]) == 0

    def test_widest_id_reads_back(self, tmp_path):
        """A dataset of MAX_ID_BITS-bit IDs, the widest a run configuration
        admits, written by save_dataset, is one metrics reads."""
        cfg = CampaignConfig(n_chips=2, pairs_per_id=MAX_ID_BITS // 16, samples_per_chip=1)
        refs = np.random.default_rng(19).integers(0, 2, (2, MAX_ID_BITS), dtype=np.uint8)
        csv_path, out = tmp_path / "dataset.csv", tmp_path / "m"
        save_dataset(packed_dataset(cfg, refs, {1.3: refs[:, None]}), csv_path,
                     csv_path.with_suffix(".json"))
        assert cli.main(["metrics", str(csv_path), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert (report["id_length"], report["reliability_pct_mean"]) == (MAX_ID_BITS, 100.0)



class TestSweep:
    @given(st.lists(st.tuples(st.one_of(st.floats(), st.integers()), st.floats()), max_size=6))
    @example([(-0.05, 0.0), (0.0, -0.0), (-0.0, 5e-324), (1e300, -1.7976931348623157e308),
              (-2.5e-308, 1e-300)])
    def test_csv_bytes_are_csv_writers(self, series):
        """sweep.csv's lines are written by hand: its bytes are those
        csv.writer wrote for the same fields, for any numbers."""
        want = io.StringIO()
        writer = csv.writer(want)
        writer.writerow(["delta_v", "abs_delta_v", "hd_shift"])
        writer.writerows([repr(dv), repr(abs(dv)), repr(shift)] for dv, shift in series)
        # No campaign sweeps to these series, and the fit refuses most of
        # them: both are stubbed, and only the CSV is checked.
        fit = {"slope": 0.0, "intercept": 0.0, "r2": 0.0}
        with tempfile.TemporaryDirectory() as tmp, \
                mock.patch.object(chipsim, "voltage_sweep", lambda campaign: series), \
                mock.patch.object(chipsim, "fit_sweep", lambda series: fit):
            write_config(Path(tmp) / "run.json", voltages=(1.25, 1.3))
            assert cli.main(["sweep", "--config", str(Path(tmp) / "run.json"),
                             "--out", tmp]) == 0
            assert (Path(tmp) / "sweep.csv").read_bytes() == want.getvalue().encode()

    def test_flag_set_is_refused_before_any_output(self, refused):
        """`emit_sweep`, which once made simulate write a sweep as well, is
        refused here too: a run configuration has one schema."""
        refused("sweep_emit_sweep")


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
        byte_syn, leaders = bch._decoder_tables()
        broken = list(leaders)
        held = [s for s, pattern in enumerate(leaders) if pattern > 0]
        if damage == "drop_leader":
            broken[held[-1]] = -1
        elif damage == "swap_leaders":
            broken[held[0]], broken[held[1]] = leaders[held[1]], leaders[held[0]]
        else:
            broken[leaders.index(-1)] = 0b1111
        monkeypatch.setattr(bch, "_decoder_tables", lambda: (byte_syn, tuple(broken)))
        assert cli.main(["bch-selftest", "--trials", "10"]) == 4
        assert "FAIL  coset-leader table" in capsys.readouterr().out

    @pytest.mark.parametrize("damage", ["miscount_flips", "return_input"])
    def test_broken_decoder_fails_the_correction_checks(self, monkeypatch, capsys, damage):
        decode_words = bch.decode_words

        def broken(words):
            words = list(words)
            fixed, flips = decode_words(words)
            if damage == "miscount_flips":
                return fixed, [n + 1 for n in flips]
            return words, flips
        monkeypatch.setattr(bch, "decode_words", broken)
        assert cli.main(["bch-selftest", "--trials", "10"]) == 4
        out = capsys.readouterr().out.splitlines()
        assert "FAIL  exhaustive 1- and 2-error correction" in out
        assert "FAIL  10 random 3-error corrections" in out

    def test_tampered_generator_exits_4(self, monkeypatch, capsys):
        monkeypatch.setattr(bch, "GENERATOR", bch.GENERATOR ^ (1 << 3))
        assert cli.main(["bch-selftest", "--trials", "10"]) == 4
        assert "FAIL" in capsys.readouterr().out


# Draws and arrays of more elements than this are refused below, as numpy
# refuses an allocation the host cannot hold, so no test asks for the memory.
HUGE = 2 ** 32


def refusing(alloc):
    """alloc, raising MemoryError in place of any call with a tuple shape or
    an int count of more than HUGE elements; its `refused` lists each one."""
    def guarded(*args, **kwargs):
        for arg in [*args, *kwargs.values()]:
            n = math.prod(arg) if isinstance(arg, tuple) else arg if type(arg) is int else 0
            if n > HUGE:
                guarded.refused.append(arg)
                raise MemoryError(f"Unable to allocate {n} elements for an array with shape "
                                  f"{arg} and data type float64")
        return alloc(*args, **kwargs)
    guarded.refused = []
    return guarded


class RefusingRng:
    """A numpy Generator or random.Random whose draws are refusing (see above)."""

    def __init__(self, rng):
        self.rng = rng

    def __getattr__(self, name):
        return refusing(getattr(self.rng, name))


class CIntRandom(Random):
    """random.Random whose randbytes refuses a bit count past a C int, as
    Python 3.11's does before it allocates anything."""

    def randbytes(self, n):
        if 8 * n >= 2 ** 31:
            raise OverflowError("Python int too large to convert to C int")
        return super().randbytes(n)


class TestOutOfMemory:
    """A schema-valid configuration too large to allocate is a configuration
    error (exit 2) with numpy's message, and leaves no output behind."""

    def _huge_config(self, tmp_path, field):
        cfg = tmp_path / "run.json"
        config = write_config(cfg, voltages=(1.25, 1.3))
        config["campaign"][field] = 2 ** 40
        cfg.write_text(json.dumps(config))
        return cfg

    def test_simulate(self, tmp_path, monkeypatch, capsys):
        """The campaign is streamed: the first chip's block is refused
        before any file is written."""
        cfg = self._huge_config(tmp_path, "samples_per_chip")
        zeros = refusing(np.zeros)
        monkeypatch.setattr(np, "zeros", zeros)
        out = tmp_path / "o"
        assert cli.main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: Unable to allocate "), err
        assert zeros.refused == [(2, 2 ** 40, 4)]  # the cells, not the host, refused the run
        assert sorted(out.iterdir()) == []  # no dataset, no .partial file

    def test_sweep(self, tmp_path, monkeypatch, capsys):
        cfg = self._huge_config(tmp_path, "enroll_repetitions")
        keyed_rng = chipsim.keyed_rng
        monkeypatch.setattr(chipsim, "keyed_rng", lambda *key: RefusingRng(keyed_rng(*key)))
        out = tmp_path / "s"
        assert cli.main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: Unable to allocate "), err
        assert sorted(out.iterdir()) == []

    @staticmethod
    def _selftest_refused(monkeypatch, capsys, fake) -> str:
        """stderr of a 10**12-trial bch-selftest whose draws come from fake,
        checking that it exits 2 before any trial runs."""
        monkeypatch.setattr(bch, "Random", fake)
        decoded, decode_words = [], bch.decode_words

        def recording(words):
            words = list(words)
            decoded.append(len(words))
            return decode_words(words)
        monkeypatch.setattr(bch, "decode_words", recording)
        assert cli.main(["bch-selftest", "--trials", str(10 ** 12)]) == 2
        captured = capsys.readouterr()
        assert "FAIL" not in captured.out
        assert decoded == [4992, 496]  # the leader table and the 1- and 2-error patterns
        return captured.err

    def test_bch_selftest(self, monkeypatch, capsys):
        err = self._selftest_refused(monkeypatch, capsys, lambda seed: RefusingRng(Random(seed)))
        assert err.startswith("configuration error: Unable to allocate "), err

    def test_bch_selftest_draw_past_c_int(self, monkeypatch, capsys):
        err = self._selftest_refused(monkeypatch, capsys, CIntRandom)
        assert err == "configuration error: cannot draw 1000000000000 random messages\n", err


# RO timings that the schema admits but whose toggle times leave the float
# range: a half-period past it or rounded to zero, in the jittered and the
# noiseless sampler, and a period whose running sums overflow.
EXTREME_TIMINGS = [{"nominal_period_s": 1e308}, {"nominal_period_s": 5e-324},
                   {"jitter_sigma": 1e308}, {"nominal_period_s": 1e308, "jitter_sigma": 0},
                   {"nominal_period_s": 1e307}]


@pytest.mark.parametrize("timing", EXTREME_TIMINGS, ids=[
    ",".join(f"{k}={v!r}" for k, v in t.items()) for t in EXTREME_TIMINGS])
@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_extreme_ro_timing_is_refused(tmp_path, command, timing):
    """A configuration error (exit 2) with one line on stderr and no file
    in --out, not a hang, a traceback, a warning or a dataset of
    meaningless bits.  Run in a child interpreter with a timeout, so that
    a sampler that never ends fails the test instead of hanging the suite."""
    cfg, out = tmp_path / "run.json", tmp_path / "o"
    write_config(cfg, samples=5, voltages=(1.25, 1.3), **timing)
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-m", "ropuf.cli", command, "--config", str(cfg),
                           "--out", str(out)], capture_output=True, text=True, timeout=20,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("configuration error: ") and proc.stderr.count("\n") == 1, \
        proc.stderr
    assert "float range" in proc.stderr
    assert sorted(out.glob("*")) == []  # no dataset, no .partial file


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

    def test_defaults_are_cost_params(self, monkeypatch, capsys):
        """An option left out takes CostParams' default, not one of its own."""
        @dataclass(frozen=True)
        class DearerFlipFlops(cost.CostParams):
            transistors_per_ff: int = 31
        monkeypatch.setattr(cost, "CostParams", DearerFlipFlops)
        assert cli.main(["cost", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["waveform_ro_puf"]["transistors"] == 4 * 20 + 64 * 31
        assert data["conventional_ro_puf"]["transistors"] == \
            35 * 20 + 2 * 21 * 30 + 2 * 16 * 31 + 16 * 20

    def test_columns_stay_apart_at_any_width(self, capsys):
        assert cli.main(["cost"]) == 0
        assert capsys.readouterr().out == (
            "                          Area (transistors)  Clock cycles\n"
            "Waveform RO-PUF                         2000             8\n"
            "Conventional RO-PUF                     3240          2048\n")
        assert cli.main(["cost", "--bits", str(10 ** 23 - 1)]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert [row.rsplit(None, 2)[1:] for row in rows] == [
            ["1562500000000000000000000", "6250000000000000000000"],
            ["3240", "1599999999999999999999984"]]


class TestRunConfig:
    def test_round_trip_identical_structure(self, tmp_path):
        cfg_path = tmp_path / "run.json"
        write_config(cfg_path, coupling={"mode": "capacitive", "strength": 0.7})
        parsed = load(cfg_path)
        assert from_dict(to_dict(parsed)) == parsed

    def test_flags_all_false_load_as_none(self, tmp_path):
        """A `flags` section from before simulate wrote only the dataset
        still loads when every flag is false, as if it were absent."""
        cfg_path = tmp_path / "run.json"
        config = write_config(cfg_path)
        cfg_path.write_text(json.dumps({**config, "flags": {
            "post_bch": False, "emit_histograms": False, "emit_sweep": False}}))
        flagged = load(cfg_path)
        cfg_path.write_text(json.dumps(config))
        assert flagged == load(cfg_path)

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

    @pytest.mark.parametrize("case", cases("schema"))
    def test_malformed_config_names_field(self, refused, case):
        refused(case)
