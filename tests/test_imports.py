"""What `import ropuf.cli` costs: no process pool and no OpenSSL.

Every command pays for what the package imports.  `multiprocessing` and
`_hashlib` (OpenSSL, several MiB resident) serve no command: campaigns
run in one process, and no module of the package imports hashlib.
`numpy.random`, which the sampling commands need, would load OpenSSL
through `secrets`; run as a program, `cli.main` blocks `_hashlib` first,
while `import ropuf` and an in-process `main([...])` leave the process's
OpenSSL alone.  `metrics` loads neither.
"""
import ast
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ropuf
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
            "print(rc, 'numpy.random' in sys.modules, sys.modules.get('_hashlib'))")
    assert _loaded(code).splitlines()[-1] == "0 True None"
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
