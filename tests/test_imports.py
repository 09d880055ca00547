"""What `import ropuf` and its commands cost.

`import ropuf` is lazy: it imports no submodule and no numpy.  Each
public name in `__all__` is imported from the submodule that defines it
on first access (a module `__getattr__`, PEP 562), and so is each
submodule named as an attribute, so `ropuf.X` and `from ropuf import X`
work as if the package had imported everything.  `ropuf.cli` imports
inside each command what that command runs: `cost`, `--help` and a
usage error load no numpy.

Every command pays for what it imports.  `multiprocessing` and
`_hashlib` (OpenSSL, several MiB resident) serve no command: campaigns
run in one process, and no module of the package imports hashlib.
`numpy.random`, which the sampling commands need, would load OpenSSL
through `secrets`; run as a program, `cli.main` blocks `_hashlib` first,
while `import ropuf` and an in-process `main([...])` leave the process's
OpenSSL alone.  `metrics` loads neither, nor any numpy module: it scores
words as Python integers.
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

HEAVY = ("multiprocessing", "concurrent.futures.process", "_hashlib")
# numpy.random alone adds about 5.8 MiB resident; evaluation draws nothing.
EVALUATION_FREE = ("numpy.random", "_hashlib")
DATASET = Path(__file__).parent / "data" / "dataset.csv"


def _loaded(code: str) -> str:
    """stdout of code run in a fresh interpreter that imports ropuf from here."""
    src = str(Path(ropuf.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    return out.stdout.strip()


SUBMODULES = ("errors", "ro", "rng", "sampler", "chipsim", "dataset", "config", "bch", "metrics",
              "cost")


def test_import_ropuf_loads_no_submodule_and_no_numpy():
    code = ("import sys, ropuf; "
            "print(sorted(m for m in sys.modules if m.startswith(('ropuf.', 'numpy'))))")
    assert _loaded(code) == "[]"


def test_each_public_name_is_its_defining_modules_object():
    assert ropuf.CampaignConfig is ropuf.config.CampaignConfig
    assert ropuf.linear_fit is ropuf.metrics.linear_fit
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
    run = f"sys.argv = {['ropuf', *argv]!r}; rc = main()" if as_program else f"rc = main({argv!r})"
    code = (f"import sys; from ropuf.cli import main; {run}; "
            "print(rc, [m for m in sys.modules if m.split('.')[0] == 'numpy'])")
    assert _loaded(code).splitlines()[-1] == f"{rc} []"
    assert (tmp_path / "report.json").exists() == (rc == 0)


@pytest.fixture
def config(tmp_path):
    """The golden campaign's run configuration, as a file."""
    path = tmp_path / "run.json"
    path.write_text(json.dumps(CONFIG, indent=2))
    return path


@pytest.mark.parametrize("command, out", [("simulate", "sim"), ("sweep", "sweep")])
def test_program_samples_without_openssl(tmp_path, config, command, out):
    argv = ["ropuf", command, "--config", str(config), "--out", str(tmp_path / out)]
    code = (f"import sys; sys.argv = {argv!r}; from ropuf.cli import main; rc = main(); "
            "print(rc, 'numpy.random' in sys.modules, sys.modules.get('_hashlib'), "
            "'ropuf.bch' in sys.modules)")
    # Sampling decodes nothing, so it never compiles the codec either.
    assert _loaded(code).splitlines()[-1] == "0 True None False"
    # The draws without OpenSSL are the ones the golden pins were made from.
    pinned = [name for name in FILE_DIGESTS if name.startswith(f"{out}/")]
    assert len(pinned) == 2
    for name in pinned:
        digest = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        assert digest == FILE_DIGESTS[name], name


def test_in_process_main_keeps_openssl(tmp_path, config):
    argv = ["simulate", "--config", str(config), "--out", str(tmp_path / "sim")]
    code = (f"import sys; from ropuf.cli import main; rc = main({argv!r}); "
            "print(rc, sys.modules.get('_hashlib') is not None)")
    assert _loaded(code).splitlines()[-1] == "0 True"


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
