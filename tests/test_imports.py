"""What `import ropuf` and each of its commands load.

`import ropuf` imports no submodule and no numpy; each submodule is
imported by name.

`COMMANDS` is the table of what each command loads, one row per command
case.  `test_command` runs each row once per mode, as the `ropuf` script
runs it (`sys.argv`, then `main()`) and in-process (`main(argv)`), in one
fresh interpreter, and checks every column against that run: exit code,
stderr, the modules that must not load, the `ropuf` modules that finish
loading after numpy (a module takes its place in `sys.modules` when its
import completes), and the files left behind: each file that `simulate`
or `sweep` writes must have a golden digest, and match it.  The rows pin
that no command loads `multiprocessing` or hashlib (with OpenSSL's
`_hashlib`, several MiB resident), which `numpy.random.bit_generator`
would load through `secrets` had `ropuf.rng` not loaded it under a
stand-in that holds only `randbits`, and that none leaves a module
blocked, so a later `import hashlib` loads OpenSSL.
`cost`, `--help`, a usage error, `metrics` and `bch-selftest` load no
numpy: `metrics` scores words as Python integers, as `bch-selftest` checks
the codec.  `simulate` and `sweep` load three `numpy.random` classes and
not the package, and neither the codec, the evaluation code, `csv` nor
heapq; `sweep` loads no dataset module, and in both only `chipsim`, which
imports numpy, and `rng` finish loading after numpy.  A configuration or
`--threads` they refuse exits 2 before numpy loads and `--out` is made.
Each of these pins is checked once, by `test_command` on its row's one
run; no other test reads those runs.

The other tests check the bare package, the partial load of
`numpy.random`, numpy's streams, and two scans of the sources: only
`ropuf.rng` loads `numpy.random`, and no module imports hashlib.
"""
import ast
import hashlib
import json
import os
import re
import subprocess
import sys
from collections import namedtuple
from dataclasses import dataclass
from fnmatch import fnmatchcase
from pathlib import Path

import numpy as np
import pytest

import ropuf
from conftest import packed_dataset
from ropuf.config import CampaignConfig
from ropuf.dataset import save_dataset
from test_golden import CONFIG, FILE_DIGESTS

# What `secrets` would load: hmac, hashlib, its encodings and digests.
HASHING = ("secrets", "hmac", "hashlib", "_hashlib", "base64",
           "_md5", "_sha1", "_sha256", "_sha3", "_blake2")
HEAVY = ("multiprocessing", "concurrent.futures.process", *HASHING)
NO_NUMPY = ("numpy*", *HEAVY)
# The package numpy.random adds about 6.2 MiB resident over `import numpy`
# (26.9 -> 33.0 MiB), 3.4 MiB of it OpenSSL; the SeedSequence, PCG64 and
# Generator that ropuf.rng loads alone add about 1.5 MiB.  Sampling never
# loads the package or what it loads besides the three classes, and never
# compiles the codec, the evaluation code or heapq: it decodes and scores
# nothing, and the sweep's fit lives in chipsim.
SAMPLING_FREE = (*HEAVY, "numpy.random", "numpy.random.mtrand", "numpy.random._mt19937",
                 "numpy.random._philox", "numpy.random._sfc64", "numpy.random._pickle",
                 "heapq", "ropuf.bch", "ropuf.metrics", "csv", "_csv")
SAMPLED_LAST = ("ropuf.rng", "ropuf.chipsim")
DATASET = Path(__file__).parent / "data" / "dataset.csv"
SRC = str(Path(ropuf.__file__).resolve().parents[1])
MODES = ("program", "in_process")  # as the `ropuf` script runs main, and main(argv)


def _child(code: str, *args: str, cwd: Path | None = None) -> str:
    """Last stdout line of code run with args in a fresh interpreter that
    imports ropuf from here."""
    out = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                         check=True, cwd=cwd, env={**os.environ, "PYTHONPATH": SRC})
    return out.stdout.strip().splitlines()[-1]


# Runs `ropuf argv` as the script does, or calls main(argv), and prints
# what it returned or exited with, its stderr, the modules loaded in load
# order, the modules set to None, and which sha256 a later hashlib gives.
PROBE = """\
import io, sys
mode, argv = sys.argv[1], sys.argv[2:]
from ropuf.cli import main
stderr, sys.stderr = sys.stderr, io.StringIO()
try:
    if mode == "program":
        sys.argv = ["ropuf", *argv]
        rc = main()
    else:
        rc = main(argv)
except SystemExit as exc:
    rc = exc.code
err, sys.stderr = sys.stderr.getvalue(), stderr
loaded = list(sys.modules)
blocked = [m for m, v in sys.modules.items() if v is None]
import hashlib, json
print(json.dumps([rc, err, loaded, blocked, hashlib.sha256.__name__]))
"""

# The run configurations each command case finds in its directory.
ONE_VOLTAGE = {**CONFIG["campaign"], "voltages_v": [1.3]}
CONFIGS = {
    "run.json": CONFIG,
    "one_voltage.json": {**CONFIG, "campaign": ONE_VOLTAGE},
    "emit_histograms.json": {**CONFIG, "flags": {"emit_histograms": True}},
}


@dataclass(frozen=True)
class Command:
    """One command case, run in a directory that holds the CONFIGS files;
    {frozen} and {odd} in argv name the two metrics datasets."""

    argv: tuple[str, ...]
    rc: int = 0
    stderr: str = ""  # a pattern the whole stderr matches
    absent: tuple[str, ...] = NO_NUMPY  # fnmatch patterns of modules that must not load
    after_numpy: tuple[str, ...] = ()  # the ropuf modules that finish loading after numpy
    files: tuple[str, ...] = ()  # must exist afterwards; sampled ones match FILE_DIGESTS
    no_files: tuple[str, ...] = ()  # must not exist afterwards
    modes: tuple[str, ...] = MODES


def _metrics(dataset: str, *flags: str) -> Command:
    return Command(("metrics", dataset, "--out", "out", *flags),
                   files=("out/report.json", "out/histograms.csv"))


def _refused(command: str, config: str, threads: str, message: str) -> Command:
    return Command((command, "--config", config, "--out", "out", "--threads", threads), rc=2,
                   stderr=f"configuration error: {message}\n", no_files=("out",))


COMMANDS = {
    "cost": Command(("cost",), modes=("program",)),
    "help": Command(("--help",), modes=("program",)),
    "usage_error": Command(("no-such-command",), rc=2, modes=("program",),
                           stderr=r"usage: ropuf .*: error: argument command: invalid choice: .*"),
    "bch_selftest": Command(("bch-selftest", "--trials", "10"),
                            absent=(*NO_NUMPY, "ropuf.chipsim", "ropuf.config")),
    "metrics_frozen_raw": _metrics("{frozen}"),
    "metrics_frozen_post_bch": _metrics("{frozen}", "--post-bch"),
    "metrics_odd_raw": _metrics("{odd}"),
    # 18 bits are too short for the code.
    "metrics_odd_post_bch_refused": Command(("metrics", "{odd}", "--out", "out", "--post-bch"),
                                            rc=3,
                                            stderr="data error: ID shorter than the 31-bit code\n",
                                            no_files=("out",)),
    "simulate": Command(("simulate", "--config", "run.json", "--out", "sim"),
                        absent=SAMPLING_FREE, after_numpy=SAMPLED_LAST,
                        files=("sim/dataset.csv", "sim/dataset.json"),
                        no_files=("sim/report.json", "sim/sweep.csv")),
    "sweep": Command(("sweep", "--config", "run.json", "--out", "sweep"),
                     absent=(*SAMPLING_FREE, "ropuf.dataset"), after_numpy=SAMPLED_LAST,
                     files=("sweep/sweep.csv", "sweep/sweep.json"),
                     no_files=("sweep/dataset.csv",)),
    "sweep_missing_file": _refused("sweep", "missing.json", "1",
                                   r"cannot read config missing\.json: .*No such file.*"),
    "sweep_one_voltage": _refused("sweep", "one_voltage.json", "1",
                                  "voltages_v: sweep needs at least two voltages"),
    "sweep_threads_zero": _refused("sweep", "run.json", "0", "threads must be >= 1, got 0"),
    "simulate_missing_file": _refused("simulate", "missing.json", "1",
                                      r"cannot read config missing\.json: .*No such file.*"),
    "simulate_threads_zero": _refused("simulate", "run.json", "0",
                                      "threads must be >= 1, got 0"),
    "simulate_flag_set": _refused(
        "simulate", "emit_histograms.json", "1",
        r"config\.flags\.emit_histograms must be false \(simulate writes only the dataset: "
        r"run `ropuf metrics` or `ropuf sweep`\), got True"),
}
CASES = [(name, mode) for name, row in COMMANDS.items() for mode in row.modes]


@pytest.fixture(scope="module")
def odd_dataset(tmp_path_factory):
    """An 18-bit dataset of random bits: 5 hex digits, the top one partial."""
    rng = np.random.default_rng(18)
    cfg = CampaignConfig(n_chips=3, pairs_per_id=2, word_length=9, samples_per_chip=40,
                         voltages=(1.25, 1.3))
    path = tmp_path_factory.mktemp("odd") / "dataset.csv"
    save_dataset(packed_dataset(cfg, rng.integers(0, 2, (3, 18), dtype=np.uint8),
                                {v: rng.integers(0, 2, (3, 40, 18), dtype=np.uint8)
                                 for v in cfg.voltages}),
                 path, path.with_suffix(".json"))
    return path


# What PROBE printed (`loaded` in load order).
Run = namedtuple("Run", "rc err loaded blocked sha256")


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name, mode", CASES, ids=[f"{name}-{mode}" for name, mode in CASES])
def test_command(tmp_path, odd_dataset, name, mode):
    """The row's one run, in a directory that holds the CONFIGS files."""
    row = COMMANDS[name]
    for file, config in CONFIGS.items():
        (tmp_path / file).write_text(json.dumps(config))
    argv = [arg.format(frozen=DATASET, odd=odd_dataset) for arg in row.argv]
    run = Run(*json.loads(_child(PROBE, mode, *argv, cwd=tmp_path)))
    assert run.rc == row.rc, run.err
    assert re.fullmatch(row.stderr, run.err, re.DOTALL), run.err
    assert [m for m in run.loaded if any(fnmatchcase(m, p) for p in row.absent)] == []
    after = run.loaded[run.loaded.index("numpy"):] if "numpy" in run.loaded else []
    assert tuple(m for m in after if m.startswith("ropuf.")) == row.after_numpy
    assert (run.blocked, run.sha256) == ([], "openssl_sha256")
    for file in row.files:
        digest = _digest(tmp_path / file)  # the file must exist
        if row.argv[0] in ("simulate", "sweep"):  # and a sampled one must be pinned
            assert digest == FILE_DIGESTS[file], file
    assert [file for file in row.no_files if (tmp_path / file).exists()] == []


SUBMODULES = ("errors", "ro", "rng", "chipsim", "dataset", "config", "bch", "metrics", "cost")


@pytest.fixture(scope="module")
def package():
    """What one fresh interpreter loads with `import ropuf`, then with
    `import ropuf.cli`, and the name of each submodule imported by name."""
    code = f"""\
import sys, ropuf
bare = [m for m in sys.modules if m.startswith(("ropuf.", "numpy"))]
import ropuf.cli
cli = [m for m in {HEAVY!r} if m in sys.modules]
import importlib
names = [importlib.import_module(f"ropuf.{{m}}").__name__ for m in {SUBMODULES!r}]
import json
print(json.dumps([bare, cli, ropuf.__version__, names]))
"""
    return json.loads(_child(code))


def test_import_ropuf_loads_no_submodule_and_no_numpy(package):
    assert package[0] == []


def test_cli_import_loads_no_pool_and_no_openssl(package):
    assert package[1] == []


def test_submodules_resolve_after_a_bare_import(package):
    assert package[2:] == [ropuf.__version__, [f"ropuf.{m}" for m in SUBMODULES]]


def test_unknown_name_is_attribute_error():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        ropuf.no_such_name
    with pytest.raises(ImportError, match="no_such_name"):
        exec("from ropuf import no_such_name", {})


# Integer keys of one, two and five parts, one past 32 bits.
KEYS = ((7,), (3, 1, 4), (2 ** 40,), (777, 3), (20260809, 1, 0, 1, 0))


@pytest.fixture(scope="module")
def partial_load():
    """What one fresh interpreter sees after `ropuf.rng`'s partial load of
    numpy.random: keyed draws, the stand-in's randbits and two unseeded
    entropies, then `import numpy.random`, then `import secrets`."""
    code = f"""\
import random, sys
from ropuf.rng import SeedSequence, keyed_rng
draws = [keyed_rng(*key).random(3).tolist() for key in {KEYS!r}]
randbits = sys.modules["numpy.random.bit_generator"].randbits
stand_in = [isinstance(randbits.__self__, random.SystemRandom),
            randbits.__func__ is random.SystemRandom.getrandbits]
a, b = SeedSequence().entropy, SeedSequence().entropy
entropy = [a != b, 0 <= a < 2 ** 128, 0 <= b < 2 ** 128]
unloaded = ["numpy.random" in sys.modules, "secrets" in sys.modules]
import numpy as np, numpy.random
package = [type(keyed_rng(1)) is np.random.Generator, 0 <= np.random.default_rng().random() < 1,
           np.random.default_rng(0).random(2).tolist()]
import json, secrets, sysconfig
from pathlib import Path
real = [Path(secrets.__file__) == Path(sysconfig.get_paths()["stdlib"], "secrets.py"),
        len(secrets.token_bytes(8))]
print(json.dumps(dict(draws=draws, stand_in=stand_in, entropy=entropy, unloaded=unloaded,
                      package=package, secrets=real)))
"""
    return json.loads(_child(code))


def test_partial_load_draws_as_default_rng(partial_load):
    assert not partial_load["unloaded"][0]
    assert partial_load["draws"] == [
        np.random.default_rng(np.random.SeedSequence(key)).random(3).tolist() for key in KEYS]


# A short sha256 of each key's first 256 normals, and of one running sum
# as sample_rows takes it, drawn with numpy 2.4.6.  The golden pins rest
# on these: PCG64, SeedSequence, the ziggurat and accumulate's sums
# (NEP 19 does not promise them stable across numpy versions).
NORMALS = ("5b8673dd44c50b5f", "36c055736b71173e", "afbda5f3aefee614", "eb154a64af5d2df6",
           "95883c6c758f0be7")
RUNNING_SUM = "2a1cab082eac4c49"


def test_numpy_streams_are_the_pinned_ones():
    """keyed_rng is numpy's own Generator (see the test above), so a
    mismatch here means numpy's streams moved, not the sampler."""
    from ropuf.rng import keyed_rng
    moved = f"numpy's stream moved (numpy {'.'.join(np.__version__.split('.')[:2])})"

    def digest(array):
        return hashlib.sha256(array.tobytes()).hexdigest()[:16]
    assert [digest(keyed_rng(*key).standard_normal(256)) for key in KEYS] == list(NORMALS), moved
    row = keyed_rng(*KEYS[0]).standard_normal((1, 256))
    np.add.accumulate(row, axis=1, out=row)
    assert digest(row) == RUNNING_SUM, moved


def test_numpy_random_imports_after_the_partial_load(partial_load):
    assert partial_load["package"] == [True, True, np.random.default_rng(0).random(2).tolist()]


def test_rng_leaves_secrets_unloaded(partial_load):
    assert not partial_load["unloaded"][1]


def test_unseeded_seed_sequences_draw_128_fresh_bits(partial_load):
    assert partial_load["entropy"] == [True, True, True]


def test_stand_in_randbits_is_system_random(partial_load):
    assert partial_load["stand_in"] == [True, True]


def test_secrets_imports_after_the_partial_load(partial_load):
    assert partial_load["secrets"] == [True, 8]


def test_secrets_imported_first_is_the_one_numpy_uses():
    code = ("import secrets, sys, ropuf.rng; "
            "print(sys.modules['numpy.random.bit_generator'].randbits is secrets.randbits)")
    assert _child(code) == "True"


def test_keyed_rng_is_the_loaded_packages_generator():
    from ropuf import rng
    assert type(rng.keyed_rng(1)) is np.random.Generator


def _numpy_random_uses(path: Path) -> list[int]:
    """Lines of path that import from numpy.random or read np.random
    outside an annotation."""
    tree = ast.parse(path.read_text(), str(path))
    annotations = [node.annotation for node in ast.walk(tree)
                   if isinstance(node, (ast.arg, ast.AnnAssign))]
    annotations += [node.returns for node in ast.walk(tree)
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    exempt = {id(node) for a in annotations if a is not None for node in ast.walk(a)}
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        elif (isinstance(node, ast.Attribute) and node.attr == "random" and id(node) not in exempt
              and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")):
            names = ["numpy.random"]
        else:
            continue
        if any(n == "numpy.random" or n.startswith("numpy.random.") for n in names):
            lines.append(node.lineno)
    return lines


def test_only_rng_loads_numpy_random():
    """chipsim's np.random.Generator annotations stay legal."""
    sources = sorted(Path(ropuf.__file__).parent.glob("*.py"))
    assert {path.name for path in sources if _numpy_random_uses(path)} == {"rng.py"}


def test_no_module_imports_hashlib():
    sources = sorted(Path(ropuf.__file__).parent.glob("*.py"))
    assert len(sources) > 1
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not any(n.split(".")[0] in ("hashlib", "_hashlib") for n in names), \
                (path.name, node.lineno)
