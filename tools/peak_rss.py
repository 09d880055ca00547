#!/usr/bin/env python3
"""Peak resident memory of one ropuf command, run as a program N times.

    python3 tools/peak_rss.py --runs 7 sweep --config run.json --out /tmp/sw
    python3 tools/peak_rss.py --warm --src ../parent/src metrics data.csv --out /tmp/m

Each run starts a fresh interpreter on a small launcher that registers an
`atexit` hook, sets `sys.argv` and calls `ropuf.cli.main()` as the
`ropuf` script does.  At exit the hook prints the process's own `VmHWM`
from /proc/self/status.  That figure belongs to the child's address space
alone, so unlike `ru_maxrss` it does not inherit the high-water mark of
the process that started it, and it can read below the starting
process's RSS.  The hook also prints `RssAnon` (heap and other private
memory) and `RssFile` (mapped files: the interpreter's and numpy's code
pages) from the same file, as they stand at exit, which shows whether a
change cut heap or mapped code.

The package is copied from `--src` to a temporary directory without
`__pycache__`.  By default each run compiles ropuf from source
(PYTHONDONTWRITEBYTECODE=1), as the benchmark's children do; `--warm`
compiles the copy once first, so the runs load cached bytecode.  Prints
each run's peak, `RssAnon` and `RssFile` and their medians, in MiB; exits
1 if a run fails.
"""
from __future__ import annotations

import argparse
import compileall
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

MARK = "peak_rss.py kB"
FIELDS = ("VmHWM", "RssAnon", "RssFile")
LAUNCHER = f"""\
import atexit, sys
def _report():
    with open("/proc/self/status") as fh:
        kib = dict(line.split()[:2] for line in fh if line.startswith({FIELDS!r}))
    print({MARK!r}, *(kib[f + ":"] for f in {FIELDS!r}), file=sys.stderr, flush=True)
atexit.register(_report)
sys.argv = ["ropuf", *sys.argv[1:]]
from ropuf.cli import main
sys.exit(main())
"""


def peaks(src: Path, command: list[str], runs: int, warm: bool) -> list[tuple[float, ...]]:
    """The FIELDS in MiB of each of runs runs of command on a copy of src/ropuf."""
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copytree(src / "ropuf", Path(tmp) / "ropuf",
                        ignore=shutil.ignore_patterns("__pycache__"))
        if warm:
            compileall.compile_dir(Path(tmp) / "ropuf", quiet=1)
        env = {**os.environ, "PYTHONPATH": tmp, "PYTHONDONTWRITEBYTECODE": "1",
               "PYTHONSAFEPATH": "1"}  # no working directory on sys.path
        out = []
        for i in range(runs):
            proc = subprocess.run([sys.executable, "-c", LAUNCHER, *command], env=env,
                                  capture_output=True, text=True)
            lines = [line for line in proc.stderr.splitlines() if line.startswith(MARK)]
            if proc.returncode != 0 or not lines:
                sys.exit(f"run {i} failed (exit {proc.returncode}):\n{proc.stderr[-800:]}")
            out.append(tuple(int(kib) / 1024 for kib in lines[-1].split()[-len(FIELDS):]))
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--warm", action="store_true", help="load cached bytecode")
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parents[1] / "src",
                        help="directory that holds the ropuf package (default: ./src)")
    parser.add_argument("command", nargs=argparse.REMAINDER, help="ropuf arguments")
    args = parser.parse_args()
    if args.runs < 1 or not args.command:
        parser.error("need --runs >= 1 and a ropuf command")
    columns = dict(zip(FIELDS, zip(*peaks(args.src, args.command, args.runs, args.warm))))
    for name, values in columns.items():
        print(f"{name:7} runs (MiB):", " ".join(f"{v:.2f}" for v in values))
    print("median", ", ".join(f"{name} {statistics.median(v):.2f}" for name, v in columns.items()),
          f"MiB ({'warm' if args.warm else 'cold'} bytecode, {args.runs} runs)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
