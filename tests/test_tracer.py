"""The benchmark tracer still finds the functions it wraps, and the
benchmark's checks still read the files the commands write.

`perfbench/traced_cli.py` looks up the function at each layer boundary
by name (its `BOUNDARIES` table) and wraps it, so a deleted or renamed
boundary breaks only the traced benchmark runs, which this suite does
not otherwise run.  `perfbench/run.py` reads datasets and reports
without the program, so a file layout it cannot read fails only the
benchmark.  These checks read `perfbench/` and change nothing in it.
"""
import ast
import hashlib
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import ropuf
from ropuf import cli
from test_golden import CONFIG, FILE_DIGESTS, _run

TRACED_CLI = Path(__file__).resolve().parents[1] / "perfbench" / "traced_cli.py"


def _boundaries() -> tuple:
    """BOUNDARIES of traced_cli.py, which patches nothing at import."""
    spec = importlib.util.spec_from_file_location("traced_cli", TRACED_CLI)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.BOUNDARIES


def test_every_boundary_resolves_to_a_callable():
    boundaries = _boundaries()
    assert boundaries
    for module, attr, _ in boundaries:
        owner = importlib.import_module(f"ropuf.{module}")
        assert callable(getattr(owner, attr, None)), f"ropuf.{module}.{attr}"


def test_every_public_name_has_a_caller_in_src():
    """Each public top-level function or class of a ropuf module is named by
    src code (a name, an attribute or an import), or wrapped by the tracer:
    no API that only tests call stays in src/."""
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(Path(ropuf.__file__).parent.glob("*.py"))}
    named = {attr for _, attr, _ in _boundaries()}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                named.update(alias.name for alias in node.names)
    unnamed = [(file, node.name) for file, tree in trees.items() if file != "__init__.py"
               for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and not node.name.startswith("_") and node.name not in named]
    assert unnamed == []


def test_benchmark_checks_read_the_golden_outputs(tmp_path, monkeypatch):
    """perfbench/run.py's exact checks of a raw and a post-BCH report,
    which read the dataset's sidecar references without the program, pass
    on the golden two-voltage dataset and the reports metrics writes over
    it.  Neither perfbench module runs anything at import."""
    for path in (TRACED_CLI, TRACED_CLI.with_name("run.py")):  # run.py imports traced_cli
        spec = importlib.util.spec_from_file_location(path.stem, path)
        run = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, path.stem, run)  # where its dataclasses look
        spec.loader.exec_module(run)
    _run(tmp_path, CONFIG, post_bch=True, sweep=False)
    sim = tmp_path / "sim"
    assert run.check_raw_report(sim)({"report.json": tmp_path / "raw" / "report.json"}) is None
    assert run.check_post_bch_exact(sim)(
        {"report_post_bch.json": tmp_path / "post" / "report.json"}) is None


def _traced(tmp_path, *argv: str) -> set[str]:
    """The names of the spans that a traced `ropuf argv` records.  The
    trace's `names` lists every boundary the tracer patched, whether it ran
    or not, so only its spans tell what ran."""
    spans = tmp_path / "spans.json"
    src = str(Path(ropuf.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, str(TRACED_CLI), str(spans), *argv],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    trace = json.loads(spans.read_text())
    return {trace["names"][row[0]] for row in trace["spans"]}


def _golden_config(tmp_path) -> str:
    path = tmp_path / "run.json"
    path.write_text(json.dumps(CONFIG, indent=2))
    return str(path)


def _assert_pinned(root: Path, prefix: str) -> None:
    pinned = [name for name in FILE_DIGESTS if name.startswith(prefix)]
    assert len(pinned) == 2
    for name in pinned:
        digest = hashlib.sha256((root / name).read_bytes()).hexdigest()
        assert digest == FILE_DIGESTS[name], name


def test_traced_simulate_writes_the_golden_files(tmp_path):
    ran = _traced(tmp_path, "simulate", "--config", _golden_config(tmp_path),
                  "--out", str(tmp_path / "sim"), "--threads", "1")
    _assert_pinned(tmp_path, "sim/")
    assert "chipsim.save_dataset" in ran
    assert not ran & {"chipsim.run_campaign", "metrics.compute_report"}


def test_traced_metrics_writes_the_golden_report(tmp_path):
    """A traced `metrics --post-bch` scores the golden dataset through the
    wrapped compute_report and corrected_sample_words, and writes the
    pinned report and histograms."""
    assert cli.main(["simulate", "--config", _golden_config(tmp_path),
                     "--out", str(tmp_path / "sim")]) == 0
    ran = _traced(tmp_path, "metrics", str(tmp_path / "sim" / "dataset.csv"),
                  "--out", str(tmp_path / "post"), "--post-bch")
    _assert_pinned(tmp_path, "post/")
    assert {"metrics.compute_report", "metrics.corrected_sample_words"} <= ran
