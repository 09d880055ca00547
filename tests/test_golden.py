"""Golden digests: small fixed campaigns must reproduce byte for byte.

The pins were computed once and are never re-derived from the code under
test.  A mismatch means output bits changed; if that is deliberate, the
change has to say why and re-pin here.

Evaluation has its own pins over a dataset committed under tests/data
(the campaign below, as stream version 1 wrote it): they hold across any
change of the sampling streams.
"""
import hashlib
import json
from pathlib import Path

import pytest

from ropuf import chipsim, cli, metrics

# Jitter is far above the paper's so that samples at the reference
# voltage carry 1-5 bit errors: the post-BCH outputs then cover clean
# words, corrected words and decode failures, and at 1.25 V most of one
# chip's samples are uncorrectable.
CONFIG = {
    "ro": {
        "nominal_period_s": 1e-9,
        "process_sigma": 0.04,
        "jitter_sigma": 0.008,
        "voltage_sensitivity_per_v": 0.5,
        "voltage_sensitivity_sigma_per_v": 0.15,
        "reference_voltage_v": 1.3,
    },
    "campaign": {
        "n_chips": 3,
        "pairs_per_id": 2,
        "word_length": 16,
        "samples_per_chip": 50,
        "enroll_repetitions": 9,
        "voltages_v": [1.25, 1.3],
        "master_seed": 20170302,
    },
    "coupling": {"mode": "none"},
    "flags": {"post_bch": False, "emit_histograms": False, "emit_sweep": False},
}

# The same campaign with 9-bit unit words: an 18-bit ID is 5 hex digits,
# the top one partial.  It is too short for the code, so raw only.
ODD_CONFIG = {**CONFIG, "campaign": {**CONFIG["campaign"], "word_length": 9}}

# Re-pinned for stream version 2 (per (chip, unit) RO1, RO2 and
# enrollment streams of fixed row width): every file below is computed
# from freshly sampled bits, so all of them changed with the streams.
FILE_DIGESTS = {
    "sim/dataset.csv":
        "1a87c65607bfe16d368cf053fb02baad1770483e05829f5bbaadb5dfa045d6f6",
    "sim/dataset.json":
        "163bcf84bdb81eb6471facdd0067013ad423f8fca3a1c36181d60836b1fbc219",
    "raw/report.json":
        "47d002dca03cf31ce23aeb2eb7094de83b89c6c953e1365712f79ad4a91f9b69",
    "raw/histograms.csv":
        "64c24948adb77f7845e04fca0dafb2c0712b1780f6a5ce8303dec7a2b7f25928",
    "post/report.json":
        "f3000d18653c413a4419e36a720ef3816bbcc1a4eb00b53bab955ec0aa777a6b",
    "post/histograms.csv":
        "b27a0ff55206a3dd5cb4d4d74f4491f75bf44a939c3bf74f1ba8d5a753d1bb95",
    "sweep/sweep.csv":
        "947b52973b61b032d3e09d586be5ad9ad70fe6fc4a34f3f4dbd7564c0cfad28b",
    "sweep/sweep.json":
        "c2047d52a3ccec770f9410af07dae930cc27b06631bf52802e86282187237f6c",
    "odd/sim/dataset.csv":
        "57f28037c393bdd8fde37070b56154e1269e02bb49cf37f4b09b86e46c57235e",
    "odd/sim/dataset.json":
        "569696db7d329204d6d0fd8d2fb865be082c2f2dd5e2c8737c3022304814e4ed",
    "odd/raw/report.json":
        "076bc001ebb550aa9a6a13706b9c7fd5e4612086a96d142e3b5f6dd85bdbdc1d",
}

# sha256 of json.dumps(compute_report(ds, voltage=1.25, post_bch=p).to_json_dict())
OFF_REFERENCE_DIGESTS = {
    False: "cf2b10fc0330cf20c9802663d51476b5c0b2e9107e4c33c562e6295bf861d59a",
    True: "09b7eff4420d4ac4a2fed1d216bb6385dfee4750be3788b3c5a18b473e9f953c",
}

# tests/data holds sim/dataset.{csv,json} of CONFIG as stream version 1
# wrote them (no stream_version key), and these are the files `metrics`
# wrote over them, raw and post-BCH, before the stream changed.
FROZEN = Path(__file__).parent / "data"
FROZEN_DIGESTS = {
    "dataset.csv": "f3afc902d0b883ab2fd4d7b3a93c012715aec7df1c93241a7d03777e377ad95c",
    "dataset.json": "a2ef6c6056b7a1cba01deaa8ff5d29ae2d4685d079c07e8f086888e837143c52",
    "raw/report.json": "6bcce9dbdaee05fc167770782c76ff761d47ca10f5d78a1279eee68b476ffcc3",
    "raw/histograms.csv": "655450b040bc2737b80ebb0411b721bbea4a21abd2cc1b565ef5815b474bb5ed",
    "post/report.json": "5fca83f86cd54aa7d3f96a0fd06f5b1013bda5518df82fa30b308b037d2bdcde",
    "post/histograms.csv": "3c200940e3000bdb8e85ce2f7835fb94f99f3bfc2026bff5c1166cc56d393593",
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run(root, config, post_bch: bool, sweep: bool) -> None:
    root.mkdir(exist_ok=True)
    cfg = root / "run.json"
    cfg.write_text(json.dumps(config, indent=2))
    sim = root / "sim"
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(sim)]) == 0
    assert cli.main(["metrics", str(sim / "dataset.csv"), "--out", str(root / "raw")]) == 0
    if post_bch:
        assert cli.main(["metrics", str(sim / "dataset.csv"), "--out", str(root / "post"),
                         "--post-bch"]) == 0
    if sweep:
        assert cli.main(["sweep", "--config", str(cfg), "--out", str(root / "sweep")]) == 0


@pytest.fixture(scope="module")
def golden_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    _run(root, CONFIG, post_bch=True, sweep=True)
    _run(root / "odd", ODD_CONFIG, post_bch=False, sweep=False)
    return root


@pytest.mark.parametrize("name", sorted(FILE_DIGESTS))
def test_cli_output_digest(golden_run, name):
    assert _sha256((golden_run / name).read_bytes()) == FILE_DIGESTS[name]


@pytest.mark.parametrize("post_bch", [False, True])
def test_off_reference_report_digest(golden_run, post_bch):
    sim = golden_run / "sim"
    ds = chipsim.load_dataset(sim / "dataset.csv", sim / "dataset.json")
    report = metrics.compute_report(ds, voltage=1.25, post_bch=post_bch)
    text = json.dumps(report.to_json_dict())
    assert _sha256(text.encode()) == OFF_REFERENCE_DIGESTS[post_bch]


@pytest.fixture(scope="module")
def frozen_evaluation(tmp_path_factory):
    root = tmp_path_factory.mktemp("frozen")
    for name in ("dataset.csv", "dataset.json"):
        (root / name).write_bytes((FROZEN / name).read_bytes())
    for out, flags in (("raw", []), ("post", ["--post-bch"])):
        assert cli.main(["metrics", str(root / "dataset.csv"), "--out", str(root / out),
                         *flags]) == 0
    return root


@pytest.mark.parametrize("name", sorted(FROZEN_DIGESTS))
def test_frozen_dataset_evaluation_digest(frozen_evaluation, name):
    assert _sha256((frozen_evaluation / name).read_bytes()) == FROZEN_DIGESTS[name]
