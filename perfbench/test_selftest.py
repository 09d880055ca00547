"""Self-test of the benchmark at toy scale (3 chips x 50 samples).

    python3 -m pytest perfbench -q

Runs every workload with and without tracing, checks that every metric
is emitted with its unit, that a corrupted input dataset is counted as a
failed operation instead of crashing the benchmark, that the output
checks catch a report that disagrees with its dataset, and that it
refuses to run where the program's sources are missing.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

# A toy population is too small for the acceptance-scale uniqueness band
# to hold at every seed; at this seed every check passes.
TOY_SEED = 1

E2E_BY_WORKLOAD = {
    "campaign": {"simulate_s", "metrics_raw_s", "metrics_post_bch_s", "sim_words_per_s"},
    "sweep": {"sweep_s", "sim_words_per_s"},
    "evaluate_coupled": {"metrics_raw_s", "metrics_post_bch_s"},
}
E2E_EVERY_WORKLOAD = {"setup_s", "pipeline_s", "peak_rss_mib", "ops_failed_ratio"}
PER_LAYER = {
    "rng.keyed_rng.calls", "rng.keyed_rng.s",
    "sampler.sample_word.calls", "sampler.sample_word.s",
    "sampler.enroll_id.calls", "sampler.enroll_id.s",
    "chipsim.run_campaign.s", "chipsim.run_campaign.self_s",
    "ro.realize_ro.calls", "ro.realize_ro.s",
    "chipsim.save_dataset.s", "chipsim.save_dataset.bytes",
    "chipsim.load_dataset.s", "chipsim.load_dataset.bytes",
    "metrics.compute_report.s", "chipsim.voltage_sweep.s",
    "metrics.corrected_sample_words.calls", "metrics.corrected_sample_words.s",
    "bch.decode.calls", "bch.decode.s", "bch.decode.failed",
    "bch.decode.corrected", "bch.decode.fail_ratio", "bch.fe_enroll.calls",
    "trace.overhead_s",
}


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(tmp_path, workload, trace):
    record = run.run_benchmark(workload, TOY_SEED, 0, trace, toy=True, work_root=tmp_path)
    result = record["result"]
    spec = run.load_spec()
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == wanted
    assert E2E_BY_WORKLOAD[workload] | E2E_EVERY_WORKLOAD <= set(record["end_to_end"])
    assert record["end_to_end"]["ops_failed_ratio"] == 0
    assert PER_LAYER <= set(spec["per_layer"])
    text = "\n".join(run.summary_lines(record))
    for name in record["end_to_end"]:
        assert f"{name} " in text and run.E2E_UNITS[name]
    assert set(record["machine"]) >= {"nproc", "cpu_model", "python", "numpy",
                                      "loadavg_start", "loadavg_end"}
    if trace:
        doc = json.loads((tmp_path / workload / "trace.json").read_text())
        assert doc["commands"] and all(c["spans"] for c in doc["commands"])


def test_corrupted_dataset_counts_as_failed(tmp_path, monkeypatch):
    execute = run.execute

    def corrupt_after_prepare(cmd, *args, **kwargs):
        outcome = execute(cmd, *args, **kwargs)
        if cmd.label == "prepare_dataset":
            csv = cmd.outputs["dataset.csv"]
            lines = csv.read_text().splitlines()
            csv.write_text("\n".join(lines[: len(lines) // 2] + ["0,1.3,x,not-hex"]) + "\n")
        return outcome

    monkeypatch.setattr(run, "execute", corrupt_after_prepare)
    record = run.run_benchmark("evaluate_coupled", TOY_SEED, 0, False, toy=True,
                               work_root=tmp_path)
    result = record["result"]
    assert not result["correct"]
    # every metrics command fails; only the prepare command succeeded
    assert result["failed"] == result["attempted"] - 1 >= 2
    assert record["end_to_end"]["ops_failed_ratio"] == pytest.approx(
        result["failed"] / result["attempted"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "campaign",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_checks_catch_a_wrong_report(tmp_path):
    run.run_benchmark("campaign", TOY_SEED, 0, False, toy=True, work_root=tmp_path)
    d = tmp_path / "campaign" / "repeat-0"
    raw, post = d / "raw" / "report.json", d / "post" / "report.json"
    assert run.check_raw_report(d)({"report.json": raw}) is None
    assert run.check_post_bch_exact(d)({"report_post_bch.json": post}) is None

    report = json.loads(post.read_text())
    report["intra_hist"][0] -= 1
    report["intra_hist"][4] += 1
    post.write_text(json.dumps(report))
    assert run.check_post_bch_exact(d)({"report_post_bch.json": post})

    report = json.loads(raw.read_text())
    report["uniqueness_pct"] += 1e-6
    raw.write_text(json.dumps(report))
    assert run.check_raw_report(d)({"report.json": raw})
