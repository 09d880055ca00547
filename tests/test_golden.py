"""Golden digests: small fixed campaigns must reproduce byte for byte.

The pins were computed once and are never re-derived from the code under
test.  A mismatch means output bits changed; if that is deliberate, the
change has to say why and re-pin here.

Evaluation has its own pins over datasets committed under tests/data
(the campaign below, as stream versions 1 and 2 wrote it): they hold
across any change of the sampling streams.
"""
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from ropuf import cli

# Jitter is far above the paper's so that samples at the reference
# voltage carry up to 3 bit errors: the post-BCH outputs then cover clean
# and corrected words.
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
}

# The same campaign with 9-bit unit words: an 18-bit ID is 5 hex digits,
# the top one partial.  It is too short for the code, so raw only.
ODD_CONFIG = {**CONFIG, "campaign": {**CONFIG["campaign"], "word_length": 9}}

# The same campaign under each coupling that is not "none": capacitive at
# the default strength, pinned from simulate to the sweep, and the
# inverter loop, whose words are all zero, raw only.
CAPACITIVE_CONFIG = {**CONFIG, "coupling": {"mode": "capacitive", "strength": 0.95}}
INVERTER_LOOP_CONFIG = {**CONFIG, "coupling": {"mode": "inverter_loop"}}

# Re-pinned for stream version 3 (rows of (3*(2L-1)+1)//2 + 8 RO1 normals,
# 55 for L = 16, where version 2 drew 4*(2L-1)+8): every file below is
# computed from freshly sampled bits, so all of them changed with the
# streams.  The sweep's fit reads slope 63.06666666666661 and intercept 0.0.
#
# Every report.json pin, here and in the frozen tables below, was re-pinned
# once for report version 2: each percentage is one division of integer
# counts, each mean over chips math.fsum's sum over the chip count, and
# "report_version": 2 replaces "voltage_fit": null.  Only last digits of
# floats moved; no dataset, histogram or sweep byte did.
#
# The four dataset.json pins, of campaigns at 1.25 and 1.3 V, were
# re-pinned once more when each chip came to be enrolled at the reference
# voltage alone: each sidecar is the one before with every reference entry
# but the 1.3 V one dropped, and no other byte moved.
FILE_DIGESTS = {
    "sim/dataset.csv":
        "14931f4f033903a51f9bbddcc1ed96166d37c920a1f88c638bff3da1c1d386f2",
    # Re-pinned: the 1.3 V reference alone (see above).
    "sim/dataset.json":
        "671f53dbf097006aeaa1c6a782044300fc8c6d47283ee4a65f719069971f4853",
    "raw/report.json":
        "3fffc3de654016e6f0a3ffa4fb64d3d178a8e734785fba5f85e4ca49874c6a8c",
    "raw/histograms.csv":
        "7892ddbab56781cf7087449fa97e985e36272db6b557bc969241db1a8cd8b8b0",
    "post/report.json":
        "c29781b7a85419bac6e3e4c80c2197ede2c555a71422e75317320acd1b2848a3",
    "post/histograms.csv":
        "b70b5401d9873ac60d9d14d889451c3932697657ccf73a629add5cc5c3556b79",
    "sweep/sweep.csv":
        "df7784359926f77234bd43f5ae94a8ae4573bab7aecb9593ba3cbb29c1392b3b",
    "sweep/sweep.json":
        "1a66921ff75fb2fc279539e971b194b080d56ec3905dfd6cd3a1878ac531da9b",
    "odd/sim/dataset.csv":
        "91c4f9cbf028a5c7cc5f80c048706c9efc6499a926793bca1d805a37699c9f09",
    # Re-pinned: the 1.3 V reference alone (see above).
    "odd/sim/dataset.json":
        "a9630cc5c7d9c56138445b299402952c9bba614670aa62f39b40c1252bc37d58",
    "odd/raw/report.json":
        "d7d5c9c69d808ba52eaf54e2254ddaa9d5de95dbb1a0537c1de904087170c0fc",
    # Pinned at stream version 3 and report version 2.  At strength 0.95 the
    # three chips enroll the same reference (uniqueness 0.0), and the sweep's
    # fit reads slope 10.666666666666664.
    "cap/sim/dataset.csv":
        "adece05c3d293a2faa2e5baf11910f253c2c480ba403ce957b3897cb518017d5",
    # Re-pinned: the 1.3 V reference alone (see above).
    "cap/sim/dataset.json":
        "58266903992e259f1877bafdbd726be3eab8fdef125bbc565791a6da30e1f596",
    "cap/raw/report.json":
        "df282af4e48928aa4e3b7e9e6ffa82f853e788ac25fdd3d4c6d5e886caae6278",
    "cap/raw/histograms.csv":
        "7196b2ce26619296987cd2d84f4a3f44fc9c84909baa016fd854ecb42371b864",
    "cap/post/report.json":
        "d0e4460cedeacc46c5bdc0ba30b00df0b4e6aa04648412362a52f2976ac3ca3a",
    "cap/post/histograms.csv":
        "ed24ce940f1300c0c7946e8eef1a7d505831084a3a7d6eab4f9d76bf4edc9dea",
    "cap/sweep/sweep.csv":
        "ed054fc7c214698fb599644f6dc3c7729a73a43e50c7febe8ad31493acc927c6",
    "cap/sweep/sweep.json":
        "514df3921ab88894c27606354be10247890e44fb1030c10ee2a7f60e509a24e3",
    "loop/sim/dataset.csv":
        "71d50fd166fed9e57bbee36f0f2e53d20321af51da33a4bf1222fa4ed2ea4637",
    # Re-pinned: the 1.3 V reference alone (see above).
    "loop/sim/dataset.json":
        "60ffff985b9831b53dee33b75a2565b522a24b4f6c886841274ba77cc6ddcd9c",
    "loop/raw/report.json":
        "647eda7812ec9471f2468bd90f5593ee44461c523f9107786e1ded832b834fdd",
    "loop/raw/histograms.csv":
        "d2a4980306fe6bbe7bc48bcb1c547cfd7321b7a27ec262aa135ab9efb7b7d9bd",
}

# tests/data holds sim/dataset.{csv,json} of CONFIG as stream version 1
# wrote them (no stream_version key), and these are the files `metrics`
# wrote over them, raw and post-BCH, before the stream changed.
FROZEN = Path(__file__).parent / "data"
FROZEN_DIGESTS = {
    "dataset.csv": "f3afc902d0b883ab2fd4d7b3a93c012715aec7df1c93241a7d03777e377ad95c",
    "dataset.json": "a2ef6c6056b7a1cba01deaa8ff5d29ae2d4685d079c07e8f086888e837143c52",
    "raw/report.json": "f6e43f2f6f57f140b22e05c40a2d2db77f3d73bbf3c5d61721cf33077df1aa0d",
    "raw/histograms.csv": "655450b040bc2737b80ebb0411b721bbea4a21abd2cc1b565ef5815b474bb5ed",
    "post/report.json": "c05f02e25e02230891e7c2886a29d7ec6071fb905b2dba215d6f7605234c60db",
    "post/histograms.csv": "3c200940e3000bdb8e85ce2f7835fb94f99f3bfc2026bff5c1166cc56d393593",
}


# tests/data/v2 holds sim/dataset.{csv,json} of CONFIG as stream version 2
# wrote them, and these are the files `metrics` wrote over them, raw and
# post-BCH, before the stream changed again.
FROZEN_V2 = FROZEN / "v2"
FROZEN_V2_DIGESTS = {
    "dataset.csv": "1a87c65607bfe16d368cf053fb02baad1770483e05829f5bbaadb5dfa045d6f6",
    "dataset.json": "163bcf84bdb81eb6471facdd0067013ad423f8fca3a1c36181d60836b1fbc219",
    "raw/report.json": "6f059a27d92f106e067de71c3ebf1288acc9a03123d381aa447f34a0c3390784",
    "raw/histograms.csv": "64c24948adb77f7845e04fca0dafb2c0712b1780f6a5ce8303dec7a2b7f25928",
    "post/report.json": "7a26967983e61379411899fcdcab10ca72b9365c7c272a6ad17607332608cb0f",
    "post/histograms.csv": "b27a0ff55206a3dd5cb4d4d74f4491f75bf44a939c3bf74f1ba8d5a753d1bb95",
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
    _run(root / "cap", CAPACITIVE_CONFIG, post_bch=True, sweep=True)
    _run(root / "loop", INVERTER_LOOP_CONFIG, post_bch=False, sweep=False)
    return root


@pytest.mark.parametrize("name", sorted(FILE_DIGESTS))
def test_cli_output_digest(golden_run, name):
    assert _sha256((golden_run / name).read_bytes()) == FILE_DIGESTS[name]


@pytest.mark.parametrize("stage", ["raw", "post"])
def test_report_fields_score_the_same_words(golden_run, stage):
    """Uniqueness is the inter histogram's mean distance over L, and the
    mean reliability the intra histogram's (each chip scores as many
    samples), so every field of one report describes the same words."""
    report = json.loads((golden_run / stage / "report.json").read_text())
    n, t = CONFIG["campaign"]["n_chips"], CONFIG["campaign"]["samples_per_chip"]
    length, pairs = report["id_length"], n * (n - 1) // 2
    inter, intra = report["inter_hist"], report["intra_hist"]
    assert (sum(inter), sum(intra)) == (pairs, n * t)
    assert report["uniqueness_pct"] == \
        100 * sum(d * k for d, k in enumerate(inter)) / (pairs * length)
    bits = n * t * length
    assert report["reliability_pct_mean"] == pytest.approx(
        100 * (bits - sum(d * k for d, k in enumerate(intra))) / bits, rel=1e-12, abs=0)


def _evaluate_frozen(root, frozen):
    """root, holding a copy of the dataset in frozen and `metrics`' raw and
    post-BCH outputs over it."""
    for name in ("dataset.csv", "dataset.json"):
        (root / name).write_bytes((frozen / name).read_bytes())
    for out, flags in (("raw", []), ("post", ["--post-bch"])):
        assert cli.main(["metrics", str(root / "dataset.csv"), "--out", str(root / out),
                         *flags]) == 0
    return root


@pytest.fixture(scope="module")
def frozen_evaluation(tmp_path_factory):
    """The outputs over the frozen dataset, and over a copy of it whose
    CSV words and sidecar references are upper case."""
    upper = tmp_path_factory.mktemp("frozen_upper_case_source")
    header, *rows = (FROZEN / "dataset.csv").read_bytes().splitlines(keepends=True)
    fields = [row.rpartition(b",") for row in rows]
    (upper / "dataset.csv").write_bytes(
        header + b"".join(head + comma + word.upper() for head, comma, word in fields))
    sidecar = json.loads((FROZEN / "dataset.json").read_text())
    sidecar["references"] = {chip: {v: word.upper() for v, word in refs.items()}
                             for chip, refs in sidecar["references"].items()}
    (upper / "dataset.json").write_text(json.dumps(sidecar))
    return (_evaluate_frozen(tmp_path_factory.mktemp("frozen"), FROZEN),
            _evaluate_frozen(tmp_path_factory.mktemp("frozen_upper_case"), upper))


@pytest.fixture(scope="module")
def frozen_v2_evaluation(tmp_path_factory):
    return _evaluate_frozen(tmp_path_factory.mktemp("frozen_v2"), FROZEN_V2)


@pytest.mark.parametrize("name", sorted(FROZEN_DIGESTS))
def test_frozen_dataset_evaluation_digest(frozen_evaluation, name):
    """The pinned outputs, also over the upper-case copy of the dataset."""
    lower, upper = frozen_evaluation
    assert _sha256((lower / name).read_bytes()) == FROZEN_DIGESTS[name]
    if not name.startswith("dataset."):
        assert _sha256((upper / name).read_bytes()) == FROZEN_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(FROZEN_V2_DIGESTS))
def test_frozen_v2_dataset_evaluation_digest(frozen_v2_evaluation, name):
    assert json.loads((FROZEN_V2 / "dataset.json").read_text())["stream_version"] == 2
    assert _sha256((frozen_v2_evaluation / name).read_bytes()) == FROZEN_V2_DIGESTS[name]


def test_sampling_runs_without_polyfit_lstsq_or_unique(tmp_path, monkeypatch):
    """simulate and sweep enroll and fit without numpy's general routines
    (np.polyfit reaches LAPACK through np.linalg.lstsq; np.unique(axis=0)
    sorts rows as a void dtype), and still write the pinned files."""
    def refuse(*args, **kwargs):
        raise AssertionError("np.polyfit, np.linalg.lstsq or np.unique called")

    for owner, name in ((np, "polyfit"), (np.linalg, "lstsq"), (np, "unique")):
        monkeypatch.setattr(owner, name, refuse)
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(CONFIG, indent=2))
    for command, out in (("simulate", "sim"), ("sweep", "sweep")):
        assert cli.main([command, "--config", str(cfg), "--out", str(tmp_path / out)]) == 0
    for name in [n for n in FILE_DIGESTS if n.startswith(("sim/", "sweep/"))]:
        assert _sha256((tmp_path / name).read_bytes()) == FILE_DIGESTS[name], name
