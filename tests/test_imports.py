"""What `import ropuf` and its commands cost.

`import ropuf` is lazy: it imports no submodule and no numpy.  Each
public name in `__all__` is imported from the submodule that defines it
on first access (a module `__getattr__`, PEP 562), and so is each
submodule named as an attribute, so `ropuf.X` and `from ropuf import X`
work as if the package had imported everything.  `ropuf.cli` imports
inside each command what that command runs: `cost`, `--help` and a
usage error load no numpy.

Every command pays for what it imports.  `multiprocessing` and hashlib
(with OpenSSL's `_hashlib`, several MiB resident) serve no command:
campaigns run in one process, and no module of the package imports
hashlib.  `numpy.random.bit_generator` would load it through `secrets`;
`ropuf.rng` loads it under a stand-in `secrets` that holds only
`randbits`, so no command loads hashlib, run as a program or in-process,
and none writes to `sys.modules` after that load.  `metrics` loads no
numpy module: it scores words as Python integers, as `bch-selftest`
checks the codec.  `sweep` loads neither the dataset module nor `csv`,
`simulate` writes its dataset without `csv`, and both import the modules
they run that need no numpy before numpy: `simulate` imports the dataset
module before `chipsim`.
"""
import ast
import hashlib
import json
import os
import subprocess
import sys
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
# The package numpy.random adds about 6.2 MiB resident over `import numpy`
# (26.9 -> 33.0 MiB), 3.4 MiB of it OpenSSL; the SeedSequence, PCG64 and
# Generator that ropuf.rng loads alone add about 1.5 MiB.  Evaluation
# draws nothing.
EVALUATION_FREE = ("numpy.random", *HASHING)
# Loaded by nothing that samples: the codec, the evaluation code, and
# Counter.most_common(n)'s heapq.
SAMPLING_FREE = (*HASHING, "heapq", "ropuf.bch", "ropuf.metrics")
# What the package numpy.random loads besides the three classes.
UNUSED_RANDOM = ("numpy.random", "numpy.random.mtrand", "numpy.random._mt19937",
                 "numpy.random._philox", "numpy.random._sfc64", "numpy.random._pickle")
DATASET = Path(__file__).parent / "data" / "dataset.csv"


def _loaded(code: str) -> str:
    """stdout of code run in a fresh interpreter that imports ropuf from here."""
    src = str(Path(ropuf.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    return out.stdout.strip()


def _run(argv: list[str], as_program: bool) -> str:
    """Code that runs `ropuf argv` as the script does, or calls `main(argv)`
    in-process, leaving the exit code in rc."""
    run = f"sys.argv = {['ropuf', *argv]!r}; rc = main()" if as_program else f"rc = main({argv!r})"
    return f"import sys; from ropuf.cli import main; {run}"


SUBMODULES = ("errors", "ro", "rng", "chipsim", "dataset", "config", "bch", "metrics", "cost")


def test_import_ropuf_loads_no_submodule_and_no_numpy():
    code = ("import sys, ropuf; "
            "print(sorted(m for m in sys.modules if m.startswith(('ropuf.', 'numpy'))))")
    assert _loaded(code) == "[]"


def test_each_public_name_is_its_defining_modules_object():
    assert ropuf.CampaignConfig is ropuf.config.CampaignConfig
    assert ropuf.linear_fit is ropuf.chipsim.linear_fit
    for name in ropuf.__all__:
        value = getattr(ropuf, name)
        assert ropuf._HOME[name] == value.__module__.removeprefix("ropuf."), name
        home = sys.modules[value.__module__]
        assert getattr(home, name) is value, name


def test_dir_lists_every_public_name_and_submodule():
    assert set(ropuf.__all__) | set(SUBMODULES) | {"__version__"} <= set(dir(ropuf))


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from ropuf import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(ropuf.__all__)


def test_unknown_name_is_attribute_error():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        ropuf.no_such_name
    with pytest.raises(ImportError, match="no_such_name"):
        exec("from ropuf import no_such_name", {})


def test_submodules_resolve_after_a_bare_import():
    code = ("import ropuf; "
            f"print(ropuf.__version__, [getattr(ropuf, m).__name__ for m in {SUBMODULES!r}])")
    assert _loaded(code) == f"{ropuf.__version__} {[f'ropuf.{m}' for m in SUBMODULES]}"


@pytest.mark.parametrize("argv, rc", [(["cost"], 0), (["--help"], 0), (["no-such-command"], 2)],
                         ids=["cost", "help", "usage_error"])
def test_program_without_numpy(argv, rc):
    code = (f"import sys; sys.argv = {['ropuf', *argv]!r}; from ropuf.cli import main\n"
            "try:\n    rc = main()\nexcept SystemExit as exc:\n    rc = exc.code\n"
            "print(rc, 'numpy' in sys.modules)")
    assert _loaded(code).splitlines()[-1] == f"{rc} False"


def test_bch_selftest_loads_no_campaign_code():
    code = ("import sys; from ropuf.cli import main; "
            "rc = main(['bch-selftest', '--trials', '10']); "
            "print(rc, [m for m in ('ropuf.chipsim', 'ropuf.config') if m in sys.modules])")
    assert _loaded(code).splitlines()[-1] == "0 []"


@pytest.mark.parametrize("as_program", [True, False], ids=["program", "in_process"])
def test_bch_selftest_loads_no_numpy(as_program):
    """The codec and its self-test are integers throughout."""
    argv = ["bch-selftest", "--trials", "10"]
    code = (f"{_run(argv, as_program)}; "
            "print(rc, [m for m in sys.modules if m.split('.')[0] == 'numpy'])")
    assert _loaded(code).splitlines()[-1] == "0 []"


def test_cli_import_loads_no_pool_and_no_openssl():
    code = f"import sys, ropuf.cli; print([m for m in {HEAVY!r} if m in sys.modules])"
    assert _loaded(code) == "[]"


@pytest.mark.parametrize("flags", [[], ["--post-bch"]], ids=["raw", "post_bch"])
def test_metrics_loads_no_numpy_random_and_no_openssl(tmp_path, flags):
    argv = ["metrics", str(DATASET), "--out", str(tmp_path), *flags]
    code = (f"import sys; from ropuf.cli import main; rc = main({argv!r}); "
            f"print(rc, [m for m in {EVALUATION_FREE!r} if m in sys.modules])")
    assert _loaded(code).splitlines()[-1] == "0 []"
    assert (tmp_path / "report.json").exists()


@pytest.fixture(scope="module")
def odd_dataset(tmp_path_factory):
    """An 18-bit dataset of random bits: 5 hex digits, the top one partial."""
    rng = np.random.default_rng(18)
    cfg = CampaignConfig(n_chips=3, pairs_per_id=2, word_length=9, samples_per_chip=40,
                         voltages=(1.25, 1.3))
    path = tmp_path_factory.mktemp("odd") / "dataset.csv"
    save_dataset(packed_dataset(cfg, {v: rng.integers(0, 2, (3, 18), dtype=np.uint8)
                                      for v in cfg.voltages},
                                {v: rng.integers(0, 2, (3, 40, 18), dtype=np.uint8)
                                 for v in cfg.voltages}),
                 path, path.with_suffix(".json"))
    return path


@pytest.mark.parametrize("as_program", [True, False], ids=["program", "in_process"])
@pytest.mark.parametrize("data, flags, rc", [
    ("frozen", [], 0), ("frozen", ["--post-bch"], 0),
    ("odd", [], 0), ("odd", ["--post-bch"], 3),  # 18 bits are too short for the code
], ids=["frozen_raw", "frozen_post_bch", "odd_raw", "odd_post_bch_refused"])
def test_metrics_loads_no_numpy(tmp_path, odd_dataset, as_program, data, flags, rc):
    """`metrics` loads no numpy module, on the frozen stream-version-1
    dataset and on an odd-length one, run as a program or called in-process."""
    argv = ["metrics", str(DATASET if data == "frozen" else odd_dataset),
            "--out", str(tmp_path), *flags]
    code = (f"{_run(argv, as_program)}; "
            "print(rc, [m for m in sys.modules if m.split('.')[0] == 'numpy'])")
    assert _loaded(code).splitlines()[-1] == f"{rc} []"
    assert (tmp_path / "report.json").exists() == (rc == 0)


@pytest.fixture
def config(tmp_path):
    """The golden campaign's run configuration, as a file."""
    path = tmp_path / "run.json"
    path.write_text(json.dumps(CONFIG, indent=2))
    return path


@pytest.mark.parametrize("command, out, as_program", [
    ("simulate", "sim", True), ("sweep", "sweep", True),
    ("simulate", "sim", False), ("sweep", "sweep", False),
], ids=["simulate-sim", "sweep-sweep", "simulate-sim-in_process", "sweep-sweep-in_process"])
def test_program_samples_without_openssl(tmp_path, config, command, out, as_program):
    argv = [command, "--config", str(config), "--out", str(tmp_path / out)]
    code = (f"{_run(argv, as_program)}; "
            f"print(rc, [m for m in {UNUSED_RANDOM + SAMPLING_FREE!r} if m in sys.modules])")
    # Sampling decodes and scores nothing, so it never compiles the codec
    # or the evaluation code either; the sweep's fit lives in chipsim.
    assert _loaded(code).splitlines()[-1] == "0 []"
    # The draws without OpenSSL are the ones the golden pins were made from.
    pinned = [name for name in FILE_DIGESTS if name.startswith(f"{out}/")]
    assert len(pinned) == 2
    for name in pinned:
        digest = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        assert digest == FILE_DIGESTS[name], name


@pytest.mark.parametrize("as_program", [True, False], ids=["program", "in_process"])
def test_sampling_leaves_openssl_loadable(tmp_path, config, as_program):
    """No module is blocked: a later `import hashlib` loads OpenSSL."""
    argv = ["simulate", "--config", str(config), "--out", str(tmp_path / "sim")]
    code = (f"{_run(argv, as_program)}; "
            "blocked = [m for m, v in sys.modules.items() if v is None]; import hashlib; "
            "print(rc, blocked, hashlib.sha256.__name__)")
    assert _loaded(code).splitlines()[-1] == "0 [] openssl_sha256"


def test_simulate_without_a_report_loads_no_metrics(tmp_path, config):
    """The golden campaign sets every flag off: no report, no sweep."""
    argv = ["simulate", "--config", str(config), "--out", str(tmp_path / "sim")]
    code = (f"import sys; from ropuf.cli import main; rc = main({argv!r}); "
            "print(rc, 'ropuf.metrics' in sys.modules)")
    assert _loaded(code).splitlines()[-1] == "0 False"


@pytest.mark.parametrize("as_program", [True, False], ids=["program", "in_process"])
def test_sweep_loads_no_dataset_module_and_no_csv(tmp_path, config, as_program):
    """A sweep writes no dataset, and writes sweep.csv's lines by hand."""
    argv = ["sweep", "--config", str(config), "--out", str(tmp_path / "sweep")]
    code = (f"{_run(argv, as_program)}; "
            "print(rc, [m for m in ('ropuf.dataset', 'csv', '_csv') if m in sys.modules])")
    assert _loaded(code).splitlines()[-1] == "0 []"


@pytest.mark.parametrize("command, as_program", [
    ("simulate", True), ("simulate", False), ("sweep", True), ("sweep", False),
], ids=["program", "in_process", "sweep-program", "sweep-in_process"])
def test_simulate_loads_the_dataset_module_before_numpy_and_no_csv(tmp_path, config, command,
                                                                   as_program):
    """`simulate` writes its dataset's lines by hand, and imports the
    dataset module before numpy: compiled after `chipsim` had loaded numpy,
    that module raised the command's peak RSS by about 0.5 MiB.  In both
    sampling commands only `chipsim`, which imports numpy, and `rng`,
    which `chipsim` imports after it, finish loading after numpy (a module
    takes its place in `sys.modules` when its import completes): the whole
    sampling path is `chipsim`'s, compiled before its body runs."""
    argv = [command, "--config", str(config), "--out", str(tmp_path / command)]
    code = (f"{_run(argv, as_program)}; loaded = list(sys.modules); "
            "print(rc, [m for m in ('csv', '_csv') if m in loaded], "
            "[m for m in loaded[loaded.index('numpy'):] if m.startswith('ropuf.')])")
    assert _loaded(code).splitlines()[-1] == "0 [] ['ropuf.rng', 'ropuf.chipsim']"


@pytest.mark.parametrize("as_program", [True, False], ids=["program", "in_process"])
@pytest.mark.parametrize("command, voltages, flags, threads, message", [
    ("sweep", None, {}, "1", "No such file"),
    ("sweep", [1.3], {}, "1", "sweep needs at least two voltages"),
    ("sweep", [1.25, 1.3], {}, "0", "threads must be >= 1, got 0"),
    ("simulate", None, {}, "1", "No such file"),
    ("simulate", [1.25, 1.3], {}, "0", "threads must be >= 1, got 0"),
    ("simulate", [1.3], {"emit_sweep": True}, "1",
     "flags.emit_sweep: a sweep needs at least two voltages"),
], ids=["missing_file", "one_voltage", "threads_zero", "simulate-missing_file",
        "simulate-threads_zero", "simulate-emit_sweep_one_voltage"])
def test_sweep_refuses_a_bad_config_before_numpy(tmp_path, as_program, command, voltages, flags,
                                                 threads, message):
    """A configuration or `--threads` that `sweep` or `simulate` refuses
    exits 2 with a message and loads no numpy."""
    path = tmp_path / "run.json"
    if voltages is not None:
        path.write_text(json.dumps({**CONFIG, "campaign": {**CONFIG["campaign"],
                                                           "voltages_v": voltages},
                                    "flags": {**CONFIG["flags"], **flags}}))
    argv = [command, "--config", str(path), "--out", str(tmp_path / "out"), "--threads", threads]
    code = (f"import contextlib, io, json; err = io.StringIO()\n"
            f"with contextlib.redirect_stderr(err):\n    {_run(argv, as_program)}\n"
            "print(json.dumps([rc, 'numpy' in sys.modules, err.getvalue()]))")
    rc, numpy_loaded, err = json.loads(_loaded(code).splitlines()[-1])
    assert (rc, numpy_loaded) == (2, False)
    assert err.startswith("configuration error: ") and message in err
    assert not (tmp_path / "out").exists()


# Integer keys of one, two and five parts, one past 32 bits.
KEYS = ((7,), (3, 1, 4), (2 ** 40,), (777, 3), (20260809, 1, 0, 1, 0))


def test_partial_load_draws_as_default_rng():
    code = ("import json, sys\n"
            "from ropuf.rng import keyed_rng\n"
            f"draws = [keyed_rng(*key).random(3).tolist() for key in {KEYS!r}]\n"
            "print(json.dumps(['numpy.random' in sys.modules, draws]))")
    package, draws = json.loads(_loaded(code))
    assert not package
    assert draws == [np.random.default_rng(np.random.SeedSequence(key)).random(3).tolist()
                     for key in KEYS]


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


def test_numpy_random_imports_after_the_partial_load():
    code = ("import sys; from ropuf.rng import keyed_rng; partial = 'numpy.random' not in sys.modules; "
            "import numpy as np, numpy.random; "
            "print(partial, type(keyed_rng(1)) is np.random.Generator, "
            "0 <= np.random.default_rng().random() < 1, np.random.default_rng(0).random(2).tolist())")
    assert _loaded(code) == f"True True True {np.random.default_rng(0).random(2).tolist()}"


def test_rng_leaves_secrets_unloaded():
    assert _loaded("import sys, ropuf.rng; print('secrets' in sys.modules)") == "False"


def test_unseeded_seed_sequences_draw_128_fresh_bits():
    code = ("from ropuf.rng import SeedSequence; a, b = SeedSequence().entropy, SeedSequence().entropy; "
            "print(a != b, 0 <= a < 2 ** 128, 0 <= b < 2 ** 128)")
    assert _loaded(code) == "True True True"


def test_stand_in_randbits_is_system_random():
    code = ("import random, sys, ropuf.rng; "
            "randbits = sys.modules['numpy.random.bit_generator'].randbits; "
            "print(isinstance(randbits.__self__, random.SystemRandom), "
            "randbits.__func__ is random.SystemRandom.getrandbits)")
    assert _loaded(code) == "True True"


def test_secrets_imports_after_the_partial_load():
    code = ("import sys, sysconfig, ropuf.rng, secrets; from pathlib import Path; "
            "print(Path(secrets.__file__) == Path(sysconfig.get_paths()['stdlib'], 'secrets.py'), "
            "len(secrets.token_bytes(8)))")
    assert _loaded(code) == "True 8"


def test_secrets_imported_first_is_the_one_numpy_uses():
    code = ("import secrets, sys, ropuf.rng; "
            "print(sys.modules['numpy.random.bit_generator'].randbits is secrets.randbits)")
    assert _loaded(code) == "True"


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
