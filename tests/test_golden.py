"""Golden digests: small fixed campaigns must reproduce byte for byte.

The pins were computed once and are never re-derived from the code under
test.  A mismatch means output bits changed; if that is deliberate, the
change has to say why and re-pin here.
"""
import hashlib
import json

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

FILE_DIGESTS = {
    "sim/dataset.csv":
        "f3afc902d0b883ab2fd4d7b3a93c012715aec7df1c93241a7d03777e377ad95c",
    "sim/dataset.json":
        "a2ef6c6056b7a1cba01deaa8ff5d29ae2d4685d079c07e8f086888e837143c52",
    "raw/report.json":
        "6bcce9dbdaee05fc167770782c76ff761d47ca10f5d78a1279eee68b476ffcc3",
    "raw/histograms.csv":
        "655450b040bc2737b80ebb0411b721bbea4a21abd2cc1b565ef5815b474bb5ed",
    "post/report.json":
        "5fca83f86cd54aa7d3f96a0fd06f5b1013bda5518df82fa30b308b037d2bdcde",
    "post/histograms.csv":
        "3c200940e3000bdb8e85ce2f7835fb94f99f3bfc2026bff5c1166cc56d393593",
    "sweep/sweep.csv":
        "050724293abc99999ad5dae41453ad816677c1e74f2d42ddfa67d621fb3d6ffa",
    "sweep/sweep.json":
        "27b4a65b28981d42d25d6a15d5384160402c8eaaf3bf8b80a3106516076a12e9",
    "odd/sim/dataset.csv":
        "6559186c1afbb0dd091f6fdedd1c12f178d6da9ed03d627256acc41e6b48aeb2",
    "odd/sim/dataset.json":
        "637b6f5e98e25d57028f50371b8b8377b2caf937abfec34ae79b23cac746a199",
    "odd/raw/report.json":
        "9c3954775b4fc29f54302975d146c78cd6cddaea44b8152f1783e3c5876399d4",
}

# sha256 of json.dumps(compute_report(ds, voltage=1.25, post_bch=p).to_json_dict())
OFF_REFERENCE_DIGESTS = {
    False: "95857f98bff643bc42e0508fe7bead7b1987ed2abb1edbe0ed6607f9e05e447a",
    True: "a8ab240af41ad672589e7659dc18b52822b8c3496c237342a7ef821a94d8cbe3",
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
