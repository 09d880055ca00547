"""What `import ropuf.cli` costs: no process pool and no OpenSSL.

Every command pays for what the package imports.  `multiprocessing` and
`_hashlib` (OpenSSL, several MiB resident) serve no command: campaigns
run in one process, and `bch.key_digest` imports hashlib when called.
The commands that sample still load OpenSSL through `numpy.random`.
"""
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import ropuf
from ropuf import bch
from ropuf.sampler import ResponseWord

HEAVY = ("multiprocessing", "concurrent.futures.process", "_hashlib")


def test_cli_import_loads_no_pool_and_no_openssl():
    src = str(Path(ropuf.__file__).resolve().parents[1])
    code = f"import sys, ropuf.cli; print([m for m in {HEAVY!r} if m in sys.modules])"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"


def test_key_digest_is_sha256_of_packed_key(rng):
    for _ in range(20):
        key = ResponseWord(rng.integers(0, 2, bch.K, dtype=np.uint8))
        want = hashlib.sha256(np.packbits(key.bits).tobytes()).hexdigest()
        assert bch.key_digest(key) == want
