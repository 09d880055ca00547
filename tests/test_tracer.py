"""The benchmark tracer still finds the functions it wraps.

`perfbench/traced_cli.py` looks up the function at each layer boundary
by name (its `BOUNDARIES` table) and wraps it, so a deleted or renamed
boundary breaks only the traced benchmark runs, which this suite does
not otherwise run.  These checks read `perfbench/` and change nothing
in it.
"""
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
from test_golden import CONFIG, FILE_DIGESTS

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


def _traced_simulate(tmp_path, config: dict, out: Path) -> set[str]:
    """The names of the spans that a traced `simulate` of config, written
    to out, records.  The trace's `names` lists every boundary the tracer
    patched, whether it ran or not, so only its spans tell what ran."""
    path, spans = tmp_path / "run.json", tmp_path / "spans.json"
    path.write_text(json.dumps(config, indent=2))
    src = str(Path(ropuf.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, str(TRACED_CLI), str(spans), "simulate",
                           "--config", str(path), "--out", str(out), "--threads", "1"],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    trace = json.loads(spans.read_text())
    return {trace["names"][row[0]] for row in trace["spans"]}


def test_traced_simulate_writes_the_golden_files(tmp_path):
    ran = _traced_simulate(tmp_path, CONFIG, tmp_path / "sim")
    pinned = [name for name in FILE_DIGESTS if name.startswith("sim/")]
    assert len(pinned) == 2
    for name in pinned:
        digest = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        assert digest == FILE_DIGESTS[name], name
    assert "chipsim.save_dataset" in ran
    assert not ran & {"chipsim.run_campaign", "metrics.compute_report"}


def test_traced_simulate_with_a_report_scores_the_files_it_wrote(tmp_path):
    """With emit_histograms, simulate streams its chip blocks to the
    dataset files and scores the files: save_dataset and compute_report
    run, run_campaign does not, and the report is the untraced run's, byte
    for byte."""
    config = {**CONFIG, "flags": {**CONFIG["flags"], "emit_histograms": True}}
    ran = _traced_simulate(tmp_path, config, tmp_path / "traced")
    assert {"chipsim.save_dataset", "metrics.compute_report"} <= ran
    assert "chipsim.run_campaign" not in ran
    assert cli.main(["simulate", "--config", str(tmp_path / "run.json"),
                     "--out", str(tmp_path / "untraced")]) == 0
    assert (tmp_path / "traced" / "report.json").read_bytes() == \
        (tmp_path / "untraced" / "report.json").read_bytes()
