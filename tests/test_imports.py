"""What `import ropuf.cli` costs: no process pool and no OpenSSL.

Every command pays for what the package imports.  `multiprocessing` and
`_hashlib` (OpenSSL, several MiB resident) serve no command: campaigns
run in one process, and `bch.key_digest` imports hashlib when called.
The commands that sample still load OpenSSL through `numpy.random`;
`metrics` loads neither.
"""
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ropuf
from ropuf import bch
from ropuf.sampler import ResponseWord

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


def test_key_digest_is_sha256_of_packed_key(rng):
    for _ in range(20):
        key = ResponseWord(rng.integers(0, 2, bch.K, dtype=np.uint8))
        want = hashlib.sha256(np.packbits(key.bits).tobytes()).hexdigest()
        assert bch.key_digest(key) == want
