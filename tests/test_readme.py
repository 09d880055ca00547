"""Every test the README names exists.

Each `tests/<file>.py::<name>[::<name>]` in README.md must name a file
under tests/ that defines that class or function at that path.  The
files are parsed, not imported.
"""
import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
REFERENCE = re.compile(r"tests/(\w+\.py)((?:::\w+)+)")


def _defines(tree: ast.Module, path: list[str]) -> bool:
    """Whether the module defines the class or function at path."""
    body = tree.body
    for name in path:
        found = [node for node in body if isinstance(
            node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == name]
        if not found:
            return False
        body = found[0].body
    return True


def test_every_named_test_is_defined():
    references = sorted(set(REFERENCE.findall((ROOT / "README.md").read_text())))
    assert references, "README.md names no test"
    paths = {file: ROOT / "tests" / file for file, _ in references}
    trees = {file: ast.parse(path.read_text()) for file, path in paths.items() if path.is_file()}
    unresolved = [f"tests/{file}{names}" for file, names in references
                  if file not in trees or not _defines(trees[file], names.split("::")[1:])]
    assert unresolved == []
