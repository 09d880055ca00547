import csv
import io
import json
import math
import tempfile
from pathlib import Path
from random import Random
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from ropuf import bch, chipsim, cli, ro
from ropuf.config import from_dict, load, to_dict
from ropuf.errors import ModelRangeError


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

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    def test_threads_help_says_ignored(self, capsys, command):
        with pytest.raises(SystemExit):
            cli.main([command, "--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        assert "accepted and ignored" in help_text and "worker" not in help_text

    def test_threads_below_one_rejected(self, tmp_path, monkeypatch, capsys):
        cfg = tmp_path / "run.json"
        write_config(cfg, voltages=(1.25, 1.3))
        out = tmp_path / "o"

        def unreachable(*args):  # --threads is checked before the population is built
            raise AssertionError("population built before --threads was checked")
        monkeypatch.setattr(chipsim, "build_population", unreachable)
        for command in ("simulate", "sweep"):
            assert cli.main([command, "--config", str(cfg), "--out", str(out),
                             "--threads", "0"]) == 2
            assert capsys.readouterr().err == "configuration error: threads must be >= 1, got 0\n"
            assert not out.exists()

    def test_negative_seed_fails_before_any_directory(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        write_config(cfg)
        out = tmp_path / "o"
        assert cli.main(["simulate", "--config", str(cfg), "--out", str(out),
                         "--seed", "-1"]) == 2
        assert "master_seed" in capsys.readouterr().err
        assert not out.exists()

    def test_failed_sampling_leaves_no_dataset(self, tmp_path, monkeypatch, capsys):
        cfg = tmp_path / "run.json"
        write_config(cfg)
        out = tmp_path / "o"
        keyed_rng = chipsim.keyed_rng

        def out_of_range_on_chip_1(seed, tag, chip, *key):
            if chip == 1:
                raise ModelRangeError("period is non-positive")
            return keyed_rng(seed, tag, chip, *key)
        monkeypatch.setattr(chipsim, "keyed_rng", out_of_range_on_chip_1)
        for streamed in (False, True):  # with and without a report to emit
            write_config(cfg)
            if streamed:
                config = json.loads(cfg.read_text())
                config["flags"]["emit_histograms"] = False
                cfg.write_text(json.dumps(config))
            assert cli.main(["simulate", "--config", str(cfg), "--out", str(out)]) == 3
            assert "non-positive" in capsys.readouterr().err
            assert sorted(out.iterdir()) == []

        monkeypatch.setattr(chipsim, "keyed_rng", keyed_rng)
        assert cli.main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        assert set(before) == {"dataset.csv", "dataset.json"}
        monkeypatch.setattr(chipsim, "keyed_rng", out_of_range_on_chip_1)
        assert cli.main(["simulate", "--config", str(cfg), "--out", str(out),
                         "--seed", "6"]) == 3
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_streamed_dataset_matches_collected(self, tmp_path):
        """Without report or sweep flags the dataset is written chip by chip
        as sampled; with them the grid is collected first.  Same bytes."""
        cfg = tmp_path / "run.json"
        config = write_config(cfg, n_chips=4, voltages=(1.25, 1.3, 1.35))
        config["flags"]["emit_sweep"] = True
        cfg.write_text(json.dumps(config))
        assert cli.main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "held")]) == 0
        config["flags"].update(emit_histograms=False, emit_sweep=False)
        cfg.write_text(json.dumps(config))
        streamed = tmp_path / "streamed"
        assert cli.main(["simulate", "--config", str(cfg), "--out", str(streamed)]) == 0
        assert {p.name for p in streamed.iterdir()} == {"dataset.csv", "dataset.json"}
        for name in ("dataset.csv", "dataset.json"):
            assert (tmp_path / "held" / name).read_bytes() == (streamed / name).read_bytes()

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
        (lambda s: s.__delitem__("references"), None),
        (lambda s: s.update(references=list(s["references"].values())), None),
        (_set_reference("0", "1.3", lambda w: "f" + w), None),
        (_set_reference("0", "1.3", lambda w: "0x" + w), None),
        (_set_reference("0", "1.3", lambda w: " " + w[:4] + "_" + w[4:]), None),
        (_set_reference("0", "1.3", lambda w: w[1:]), None),
        (_set_reference("99", "1.3", lambda w: w), "['99']['1.3']"),
        (_set_reference("0", "1.35", lambda w: w), "['0']['1.35']"),
        (_set_reference("0", "1.30", lambda w: w), "['0']['1.30']"),
        (lambda s: "x", "bad sidecar: must be a JSON object, not str"),
        (lambda s: [1], "bad sidecar: must be a JSON object, not list"),
        (lambda s: {}, "bad sidecar: missing key 'config'"),
        (_set_reference("0", "1.3", lambda w: 5),
         "sidecar reference ['0']['1.3']: 5 must be a hex string"),
        # Claims refused before any buffer is sized from them.
        (lambda s: s["config"]["campaign"].update(samples_per_chip=2**61),
         f"CSV lines: the sidecar claims 1 voltages x 3 chips x {2**61} samples"),
        (lambda s: s["config"]["campaign"].update(samples_per_chip=2**40),
         f"= {3 * 2**40} words, but the input holds at most"),
        (lambda s: s["config"]["campaign"].update(n_chips=2**61),
         f"sidecar references: the sidecar claims 1 voltages x {2**61} chips = {2**61} words, "
         "but the input holds at most 3"),
    ], ids=["missing_references", "references_as_list", "reference_hex_too_wide",
            "reference_hex_0x_prefix", "reference_hex_space_underscore",
            "reference_hex_one_digit_short", "reference_chip_outside_grid",
            "reference_voltage_outside_grid", "reference_duplicate_voltage",
            "sidecar_string", "sidecar_list", "sidecar_empty_object", "reference_int",
            "samples_claim_past_index_size", "samples_claim_past_file", "chips_claim"])
    def test_bad_sidecar_is_data_error(self, tmp_path, capsys, corrupt, where):
        """corrupt edits the sidecar in place, or returns a whole new one."""
        csv_path = self._simulated(tmp_path)
        sidecar_path = csv_path.with_suffix(".json")
        sidecar = json.loads(sidecar_path.read_text())
        replaced = corrupt(sidecar)
        sidecar_path.write_text(json.dumps(sidecar if replaced is None else replaced))
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
        (lambda line: line + "f" * 131072, "CSV line 2: field larger than field limit"),
        # A byte that is not UTF-8, written as the surrogate that stands for it.
        (lambda line: "\udcff" + line, "CSV line 2: chip '\\udcff0'"),
        (_set_word(lambda w: w[:3] + "\udcff" + w[4:]),
         "CSV line for chip 0 at 1.3 V, sample 0: bad hex word"),
    ], ids=["missing_fields", "extra_field", "non_numeric_chip", "non_numeric_voltage",
            "non_numeric_index", "bad_hex", "hex_too_wide", "hex_0x_prefix",
            "hex_space_underscore", "hex_one_digit_short", "chip_outside_grid",
            "voltage_outside_grid", "sample_outside_grid", "negative_sample",
            "duplicate_row", "chip_plus_sign", "chip_non_ascii_digit",
            "voltage_leading_space", "voltage_plus_sign", "voltage_trailing_space",
            "index_underscore", "field_over_size_limit", "chip_not_utf8", "hex_not_utf8"])
    def test_bad_csv_row_is_data_error(self, tmp_path, capsys, corrupt, where):
        csv_path = self._simulated(tmp_path)
        lines = csv_path.read_text().splitlines()
        assert lines[1].startswith("0,1.3,0,")
        lines[1] = corrupt(lines[1])
        csv_path.write_text("\n".join(lines) + "\n", errors="surrogateescape")
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
        assert sidecar["stream_version"] == 3
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
        # The fit refuses most of these series; only the CSV is checked.
        with tempfile.TemporaryDirectory() as tmp, \
                mock.patch.object(chipsim, "fit_sweep", lambda series: {}):
            cli._write_sweep_files(Path(tmp), series)
            assert (Path(tmp) / "sweep.csv").read_bytes() == want.getvalue().encode()


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
        broken = list(leaders)
        held = [s for s, pattern in enumerate(leaders) if pattern > 0]
        if damage == "drop_leader":
            broken[held[-1]] = -1
        elif damage == "swap_leaders":
            broken[held[0]], broken[held[1]] = leaders[held[1]], leaders[held[0]]
        else:
            broken[leaders.index(-1)] = 0b1111
        monkeypatch.setattr(bch, "_decoder_tables", lambda generator: (byte_syn, tuple(broken)))
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
    an int count of more than HUGE elements."""
    def guarded(*args, **kwargs):
        for arg in [*args, *kwargs.values()]:
            n = math.prod(arg) if isinstance(arg, tuple) else arg if type(arg) is int else 0
            if n > HUGE:
                raise MemoryError(f"Unable to allocate {n} elements for an array with shape "
                                  f"{arg} and data type float64")
        return alloc(*args, **kwargs)
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

    def _huge_config(self, tmp_path, field, emit_histograms=True):
        cfg = tmp_path / "run.json"
        config = write_config(cfg, voltages=(1.25, 1.3))
        config["campaign"][field] = 2 ** 40
        config["flags"]["emit_histograms"] = emit_histograms
        cfg.write_text(json.dumps(config))
        return cfg

    @pytest.mark.parametrize("emit_histograms", [True, False], ids=["collected", "streamed"])
    def test_simulate(self, tmp_path, monkeypatch, capsys, emit_histograms):
        cfg = self._huge_config(tmp_path, "samples_per_chip", emit_histograms)
        monkeypatch.setattr(np, "empty", refusing(np.empty))
        out = tmp_path / "o"
        assert cli.main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: Unable to allocate "), err
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
# traceback before the run config and the sidecar shared one schema.  A
# case edits the parsed file in place, or returns the file's whole text.
NESTED_JSON = "[" * 200000 + "]" * 200000  # deeper than json.loads can recurse
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
    "deeply_nested": (lambda c: NESTED_JSON, "cannot read config"),
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
    "stream_version_4": (lambda s: s.update(stream_version=4), "stream_version"),
    "stream_version_0": (lambda s: s.update(stream_version=0), "stream_version"),
    "stream_version_string": (lambda s: s.update(stream_version="3"), "stream_version"),
    "stream_version_true": (lambda s: s.update(stream_version=True), "stream_version"),
    "stream_version_float": (lambda s: s.update(stream_version=2.0), "stream_version"),
    "deeply_nested": (lambda s: NESTED_JSON, "bad sidecar"),
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
            cfg_path.write_text(mutate(config) or json.dumps(config))
            assert cli.main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 2
            assert not (out / "dataset.csv").exists()
            err = capsys.readouterr().err
        else:
            assert cli.main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 0
            sidecar = json.loads((out / "dataset.json").read_text())
            (out / "dataset.json").write_text(mutate(sidecar) or json.dumps(sidecar))
            capsys.readouterr()
            assert cli.main(["metrics", str(out / "dataset.csv"),
                             "--out", str(tmp_path / "m")]) == 3
            err = capsys.readouterr().err
            assert "data error:" in err
        assert field in err
