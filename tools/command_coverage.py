#!/usr/bin/env python3
"""Lines of src/ropuf that no command reaches, function by function.

    python3 tools/command_coverage.py

Runs every command under the standard library's `trace`, in process
through `ropuf.cli.main`: `simulate`, `metrics` raw and `--post-bch`, and
`sweep` on the six golden configurations of tests/test_golden.py, as its
golden runs call them, then `bch-selftest`, `cost` and `cost --json`.  It
then prints, grouped by function, each statement inside a function body
of which no line ran.  `raise` statements are left out, since a refusal
is reached only by bad input; so are docstrings.  Module and class bodies
run at import and are not listed.  It takes no options and exits 0 once
every command has succeeded, whatever it lists.
"""
from __future__ import annotations

import argparse
import ast
import contextlib
import io
import sys
import tempfile
import trace
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ropuf"


def run_commands() -> None:
    """Every command, on the golden configurations where it takes one."""
    import test_golden as golden
    from ropuf import cli
    with tempfile.TemporaryDirectory() as tmp:
        for name, config, post_bch, sweep in (
                ("plain", golden.CONFIG, True, True), ("odd", golden.ODD_CONFIG, False, False),
                ("cap", golden.CAPACITIVE_CONFIG, True, True),
                ("loop", golden.INVERTER_LOOP_CONFIG, False, False),
                ("noiseless", golden.NOISELESS_CONFIG, False, False),
                ("short", golden.SHORT_ROW_CONFIG, False, False)):
            golden._run(Path(tmp) / name, config, post_bch, sweep)
    for argv in (["bch-selftest"], ["cost"], ["cost", "--json"]):
        if cli.main(argv) != 0:
            raise SystemExit(f"ropuf {' '.join(argv)} failed")


def statements(body: list, qualname: str):
    """(function, statement) for each statement of body, nested functions
    under their own names."""
    for node in body:
        yield qualname, node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from statements(node.body, f"{qualname}.{node.name}")
            continue
        for field in ("body", "orelse", "finalbody"):
            yield from statements(getattr(node, field, []), qualname)
        for handler in getattr(node, "handlers", []):
            yield from statements(handler.body, qualname)


def own_lines(node: ast.stmt) -> range:
    """The lines of node that run when it starts: a compound statement's
    header, a simple statement's every line."""
    body = getattr(node, "body", None)
    if isinstance(body, list) and body:
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        return range(first, body[0].lineno)
    return range(node.lineno, node.end_lineno + 1)


def unreached(path: Path, ran: set[int]) -> list[tuple[str, int]]:
    """(function, line) of each statement in a function body of path with
    no line in ran, leaving out raises, docstrings and `try` headers."""
    tree, found = ast.parse(path.read_text()), []
    tops = [(node.name, node) for node in tree.body if isinstance(node, ast.FunctionDef)]
    tops += [(f"{cls.name}.{node.name}", node) for cls in tree.body
             if isinstance(cls, ast.ClassDef) for node in cls.body
             if isinstance(node, ast.FunctionDef)]
    for name, func in tops:
        for qualname, node in statements(func.body, name):
            docstring = isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            if isinstance(node, (ast.Raise, ast.Try)) or docstring:  # none runs code
                continue
            if not ran.intersection(own_lines(node)):
                found.append((qualname, node.lineno))
    return sorted(found, key=lambda item: item[1])


def main() -> int:
    argparse.ArgumentParser(description=__doc__.split("\n")[0]).parse_args()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    tracer = trace.Trace(count=1, trace=0, ignoredirs=[sys.prefix, sys.exec_prefix])
    with contextlib.redirect_stdout(io.StringIO()):
        tracer.runfunc(run_commands)
    ran: dict[str, set[int]] = {}
    for (filename, line), _ in tracer.results().counts.items():
        ran.setdefault(str(Path(filename).resolve()), set()).add(line)
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines, current = path.read_text().splitlines(), None
        for qualname, line in unreached(path, ran.get(str(path), set())):
            if qualname != current:
                print(f"{path.relative_to(ROOT)}::{qualname}")
                current = qualname
            print(f"  {line:4d}  {lines[line - 1].strip()}")
            total += 1
    print(f"{total} statements in function bodies that no command reached (raises left out)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
