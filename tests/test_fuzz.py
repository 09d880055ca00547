"""Fuzzed inputs end in exit 0, 2 or 3, never in a traceback.

Three inputs are mutated: a run configuration, a dataset sidecar and a
dataset CSV.  Mutations delete keys, replace values by other JSON types,
corrupt hex words and grid fields and truncate the text.  A `simulate`
that succeeds must write a dataset its own `metrics` accepts, and a CSV
whose only edits are non-hex characters in a word, a sign, space or '_'
in a chip, voltage or sample field, or repeated rows must be rejected
(exit 3).  Each integer campaign field but n_chips, made huge, is refused
before any output, except the seed, which sizes nothing.
"""
import copy
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ropuf import cli
from ropuf.config import INT, SCHEMA

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
        "n_chips": 2,
        "pairs_per_id": 2,
        "word_length": 16,
        "samples_per_chip": 3,
        "enroll_repetitions": 3,
        "voltages_v": [1.25, 1.3],
        "master_seed": 7,
    },
    "coupling": {"mode": "capacitive", "strength": 0.5},
}

# Small values only: a mutated campaign must stay tiny.
JSON_VALUES = st.sampled_from([
    None, True, False, 0, -1, 1, 2, 3, 0.01, 0.5, 1.25, 1.3, 1.5, -0.5, 1e-9, "", "x",
    "3", "none", "zz", "0x1f", "ffffffffff", [], [1.3], ["1.3"], {}, {"mode": "none"}])
CSV_TOKENS = st.sampled_from([
    "", "x", "-1", "0", "1", "2", "99", "1.3", "1.25", "nan", "inf", "zz", "0x1f",
    "ffffffff", "1ffffffff", "+0", " 0", "0_0", "+1.3", " 1.30", "1.3 ", "1_3", "1.2_5"])
CSV_EDITS = ("delete", "duplicate", "drop_field", "replace_field", "bad_hex_digit",
             "loose_grid_field")
FUZZ = settings(max_examples=60, derandomize=True, deadline=None)


def _paths(node, prefix=()):
    """Paths to every value below the root of a JSON document."""
    children = (node.items() if isinstance(node, dict)
                else enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _truncate(draw, text: str) -> str:
    """text cut at a drawn position, one time in four."""
    return text[:draw(st.integers(0, len(text)))] if draw(st.integers(0, 3)) == 3 else text


def mutated_json(draw, doc) -> str:
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(0, 3))):
        paths = list(_paths(doc))
        if not paths:
            break
        path = draw(st.sampled_from(paths))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = copy.deepcopy(draw(JSON_VALUES))
    return _truncate(draw, json.dumps(doc, indent=2))


def mutated_csv(draw, text: str, ops=CSV_EDITS, truncate: bool = True) -> str:
    lines = text.splitlines()
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        fields = lines[i].split(",")
        op = draw(st.sampled_from(ops))
        if op == "delete":
            del lines[i]
        elif op == "duplicate":
            lines.insert(i, lines[i])
        elif op == "drop_field":
            del fields[draw(st.integers(0, len(fields) - 1))]
            lines[i] = ",".join(fields)
        elif op == "replace_field":
            fields[draw(st.integers(0, len(fields) - 1))] = draw(CSV_TOKENS)
            lines[i] = ",".join(fields)
        elif op == "loose_grid_field":
            # Forms int() and float() take but a grid field must not have.
            k = draw(st.integers(0, min(2, len(fields) - 1)))
            loose = draw(st.sampled_from(["+{}", " {}", "{} ", "{0}_{0}"]))
            fields[k] = loose.format(fields[k])
            lines[i] = ",".join(fields)
        else:
            # The ends of a word are where int(word, 16) forgives a sign or a space.
            word = fields[-1]
            j = draw(st.sampled_from(sorted({0, len(word) // 2, max(len(word) - 1, 0)})))
            fields[-1] = word[:j] + draw(st.sampled_from("g -+._")) + word[j + 1:]
            lines[i] = ",".join(fields)
        if not lines:
            break
    text = "\n".join(lines) + "\n"
    return _truncate(draw, text) if truncate else text


@pytest.fixture(scope="module")
def dataset_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    (root / "run.json").write_text(json.dumps(CONFIG))
    assert cli.main(["simulate", "--config", str(root / "run.json"),
                     "--out", str(root / "sim")]) == 0
    return {name: (root / "sim" / name).read_text() for name in ("dataset.csv", "dataset.json")}


def _metrics(data: Path, out: Path, post_bch: bool) -> int:
    return cli.main(["metrics", str(data / "dataset.csv"), "--out", str(out)]
                    + ["--post-bch"] * post_bch)


@FUZZ
@given(st.data())
def test_fuzzed_run_config(data):
    text = mutated_json(data.draw, CONFIG)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "run.json").write_text(text)
        rc = cli.main(["simulate", "--config", str(tmp / "run.json"), "--out", str(tmp / "o")])
        assert rc in (0, 2, 3)
        if rc == 2:
            assert not (tmp / "o" / "dataset.csv").exists()
        if rc == 0:
            assert _metrics(tmp / "o", tmp / "raw", False) == 0
            assert _metrics(tmp / "o", tmp / "post", True) == 0


@FUZZ
@given(st.data())
def test_fuzzed_dataset(dataset_files, data):
    files = dict(dataset_files)
    if data.draw(st.booleans()):
        files["dataset.json"] = mutated_json(data.draw, json.loads(files["dataset.json"]))
    else:
        files["dataset.csv"] = mutated_csv(data.draw, files["dataset.csv"])
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for name, text in files.items():
            (tmp / name).write_text(text)
        post_bch = data.draw(st.booleans())
        assert _metrics(tmp, tmp / "m", post_bch) in (0, 2, 3)
        # Non-hex characters in a word, loose grid fields and repeated rows
        # are always rejected.
        files = {**dataset_files, "dataset.csv": mutated_csv(
            data.draw, dataset_files["dataset.csv"],
            ("duplicate", "bad_hex_digit", "loose_grid_field"), False)}
        for name, text in files.items():
            (tmp / name).write_text(text)
        assert _metrics(tmp, tmp / "strict", post_bch) == 3


@pytest.mark.parametrize("value", [10 ** 19, 10 ** 400], ids=["1e19", "1e400"])
@pytest.mark.parametrize("field", [key for key, _, kind, _ in SCHEMA["campaign"][2]
                                   if kind is INT and key != "n_chips"])
def test_huge_campaign_int(tmp_path, capsys, field, value):
    """A field that sizes a chip's arrays past what numpy can index exits
    2 naming it, before --out is made; n_chips sizes only the work, which
    streams chip by chip, and a seed of any size keys the streams."""
    config = copy.deepcopy(CONFIG)
    config["campaign"][field] = value
    (tmp_path / "run.json").write_text(json.dumps(config))
    out = tmp_path / "o"
    rc = cli.main(["simulate", "--config", str(tmp_path / "run.json"), "--out", str(out)])
    if field == "master_seed":
        assert rc == 0 and _metrics(out, tmp_path / "raw", False) == 0
        return
    err = capsys.readouterr().err
    assert rc == 2 and err.startswith("configuration error: ") and field in err, err
    assert not out.exists()
