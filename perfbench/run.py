#!/usr/bin/env python3
"""Benchmark of the ropuf simulate -> metrics -> post-BCH pipeline.

Run from the repository root:

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 20 --trace 0

Every measured operation is a `ropuf` CLI command, started as a child
process with `--threads 1` and the workload seed passed through
`--seed`.  This process never imports ropuf itself.

With `--trace 0` the run repeats the workload's commands as often as
fits in `--seconds` (at least once) and reports medians over the
repeats.  With
`--trace 1` it alternates untraced repeats with repeats run through
`perfbench/traced_cli.py`, which wraps the public function at each layer
boundary, and reports the per-layer metrics.

Output: a summary with every end-to-end figure of the workload by name
and unit, the failure ratio, the digest flag and the machine, then, as
the last line, one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`.  The run record and the merged span trace are
written to `.perfbench_work/<workload>/`.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from traced_cli import BOUNDARIES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("campaign", "sweep", "evaluate_coupled")

RUN_LIMIT_S = 170.0     # every run must exit within 180 s
SETUP_PROBES = 15

RO_PARAMS = {
    "nominal_period_s": 1e-9,
    "process_sigma": 0.04,
    "jitter_sigma": 0.0003,
    "voltage_sensitivity_per_v": 0.5,
    "voltage_sensitivity_sigma_per_v": 0.15,
    "reference_voltage_v": 1.3,
}
ACCEPTANCE_GRID = {"n_chips": 10, "samples_per_chip": 5000, "enroll_repetitions": 99,
                   "voltages_v": [1.3]}
GRIDS = {
    "campaign": ACCEPTANCE_GRID,
    # the criterion-8 grid
    "sweep": {"n_chips": 40, "samples_per_chip": 200, "enroll_repetitions": 49,
              "voltages_v": [1.2, 1.25, 1.3, 1.35, 1.4]},
    "evaluate_coupled": ACCEPTANCE_GRID,
}
TOY_GRID = {"n_chips": 3, "samples_per_chip": 50, "enroll_repetitions": 9}
COUPLINGS = {
    "campaign": {"mode": "none"},
    "sweep": {"mode": "none"},
    "evaluate_coupled": {"mode": "capacitive", "strength": 0.95},
}
UNITS_PER_ID = 2

# Every end-to-end figure the summary prints.  BENCHMARK.json gates only
# set-up time and peak RSS: the command times move by more than any
# allowed bound between runs on a shared host (see NOTES.md).
E2E_UNITS = {
    "setup_s": "s", "simulate_s": "s", "sweep_s": "s", "metrics_raw_s": "s",
    "metrics_post_bch_s": "s", "pipeline_s": "s", "sim_words_per_s": "1/s",
    "peak_rss_mib": "MiB", "ops_failed_ratio": "ratio",
}
# After the import, the probe times a fixed pure-Python loop: a record
# of how fast the host ran during the run, next to the numbers.
SETUP_PROBE = ("import json, time; t = time.perf_counter(); import ropuf, numpy; "
               "s = time.perf_counter() - t; t = time.perf_counter(); "
               "sum(i * i for i in range(200_000)); h = time.perf_counter() - t; "
               "print(json.dumps({'s': s, 'host_loop_s': h, 'file': ropuf.__file__, "
               "'numpy': numpy.__version__}))")


class BenchmarkError(Exception):
    """The benchmark cannot run here (no program, or a broken spec)."""


# --- output checks -------------------------------------------------------

def _json(path: Path):
    return json.loads(path.read_text())


def _mass_at_zero(report: dict) -> float:
    hist = report["intra_hist"]
    return hist[0] / sum(hist)


def check_rows(expected: int) -> Callable[[dict], str | None]:
    def check(out: dict) -> str | None:
        with open(out["dataset.csv"], "rb") as fh:
            rows = sum(1 for _ in fh) - 1
        return None if rows == expected else f"dataset.csv has {rows} rows, want {expected}"
    return check


def reference_distances(data: Path, protected: bool = False
                        ) -> tuple[int, list[int], list[int]]:
    """Read a dataset without the program: the word length, the Hamming
    distance of every sample at the reference voltage to its chip's
    reference, and that of every pair of references.  With protected,
    only the first 31 bits of each ID count, those the code covers (hex
    words put bit 0 first)."""
    sidecar = _json(data / "dataset.json")
    v0 = float(sidecar["config"]["ro"]["reference_voltage_v"])
    length = int(sidecar["config"]["campaign"]["id_length"])
    shift = length - 31 if protected else 0
    refs = {int(c): int(next(h for v, h in per_chip.items() if float(v) == v0), 16)
            for c, per_chip in sidecar["references"].items()}
    intra = []
    with open(data / "dataset.csv", newline="") as fh:
        rows = csv.reader(fh)
        next(rows)
        for chip, v, _, word in rows:
            if float(v) == v0:
                intra.append(((int(word, 16) ^ refs[int(chip)]) >> shift).bit_count())
    chips = sorted(refs)
    inter = [((refs[a] ^ refs[b]) >> shift).bit_count()
             for i, a in enumerate(chips) for b in chips[i + 1:]]
    return length - shift, intra, inter


def _histogram(distances: list[int], length: int) -> list[int]:
    counts = [0] * (length + 1)
    for d in distances:
        counts[d] += 1
    return counts


def check_raw_report(data: Path) -> Callable[[dict], str | None]:
    """The raw report against the dataset it was computed from: the
    intra- and inter-HD histograms are equal, and the uniqueness is the
    mean pairwise fractional distance of the references."""
    def check(out: dict) -> str | None:
        report = _json(out["report.json"])
        length, intra, inter = reference_distances(data)
        if report["intra_hist"] != _histogram(intra, length):
            return "raw intra-HD histogram differs from the dataset's"
        if report["inter_hist"] != _histogram(inter, length):
            return "raw inter-HD histogram differs from the dataset's"
        want = 100.0 * sum(inter) / (len(inter) * length)
        got = report["uniqueness_pct"]
        return None if abs(got - want) <= 1e-9 * want else \
            f"uniqueness {got!r}%, want {want!r}% from the references"
    return check


def check_post_bch_exact(data: Path) -> Callable[[dict], str | None]:
    """BCH(31,16,7) corrects up to 3 errors and never flips more than 3
    bits, so a sample ends at HD 0 after correction exactly when it was
    within 3 errors of its reference on the 31 protected bits.  This also
    means that no sample at raw HD 0 is lost."""
    def check(out: dict) -> str | None:
        post = _json(out["report_post_bch.json"])
        if post["bch_stage"] != "post_bch" or post["id_length"] != 31:
            return "post-BCH report is not labelled post_bch on 31 bits"
        _, intra, _ = reference_distances(data, protected=True)
        if sum(post["intra_hist"]) != len(intra):
            return f"post-BCH report counts {sum(post['intra_hist'])} samples, want {len(intra)}"
        want = sum(d <= 3 for d in intra)
        at_zero = post["intra_hist"][0]
        return None if at_zero == want else \
            f"post-BCH intra-HD count at 0 is {at_zero}, want {want} correctable samples"
    return check


def _sweep_levels(out: dict) -> dict[float, list[float]]:
    by_level: dict[float, list[float]] = {}
    for dv, shift in _json(out["sweep.json"])["series"]:
        by_level.setdefault(round(abs(dv), 9), []).append(shift)
    return by_level


def check_sweep(out: dict) -> str | None:
    """The mean HD shift is exactly 0 at the reference voltage (common
    random numbers), positive at every other voltage, and the fit slope
    is positive."""
    by_level = _sweep_levels(out)
    if by_level.get(0.0) != [0.0]:
        return f"HD shift at the reference voltage is {by_level.get(0.0)}, not [0.0]"
    if min(min(v) for dv, v in by_level.items() if dv) <= 0.0:
        return "HD shift not positive away from the reference voltage"
    slope = _json(out["sweep.json"])["fit_vs_abs_dv"]["slope"]
    return None if slope > 0.0 else f"fit slope {slope} is not positive"


# Statistical criteria that the acceptance suite checks at its pinned
# seed but that fail for some populations: reported as flags, not as
# failures.
def flag_uniqueness_band(out: dict) -> bool:
    """Uniqueness within 40-60% (criterion 9)."""
    return 40.0 <= _json(out["report.json"])["uniqueness_pct"] <= 60.0


def flag_uncoupled_above_floor(out: dict) -> bool:
    """Uncoupled post-BCH mass at 0 above 0.99 (criterion 6)."""
    return _mass_at_zero(_json(out["report_post_bch.json"])) > 0.99


def flag_coupled_below_floor(out: dict) -> bool:
    """Coupled post-BCH mass at 0 below 0.99, the floor the uncoupled
    campaign must clear (criterion 6)."""
    return _mass_at_zero(_json(out["report_post_bch.json"])) < 0.99


def flag_sweep_r2(out: dict) -> bool:
    return _json(out["sweep.json"])["fit_vs_abs_dv"]["r2"] > 0.9


def flag_sweep_monotone(out: dict) -> bool:
    """Criterion 8: the HD shift never decreases as |dV| grows."""
    by_level = _sweep_levels(out)
    levels = sorted(by_level)
    return all(max(by_level[lo]) <= min(by_level[hi]) + 1e-12
               for lo, hi in zip(levels, levels[1:]))


# --- workloads -------------------------------------------------------------

@dataclass
class Command:
    """One ropuf CLI invocation, the files it writes and how to check them."""

    label: str
    args: list[str]
    outputs: dict[str, Path]
    checks: list[Callable[[dict], str | None]] = field(default_factory=list)
    flags: dict[str, Callable[[dict], bool]] = field(default_factory=dict)


@dataclass
class Workload:
    config: dict
    prepare: list[Command]
    repeat: Callable[[Path], list[Command]]
    words: int          # sampler words per sampling command (0: none timed)


def run_config(name: str, seed: int, toy: bool) -> dict:
    grid = dict(GRIDS[name], **(TOY_GRID if toy else {}))
    return {
        "ro": RO_PARAMS,
        "campaign": {"pairs_per_id": UNITS_PER_ID, "word_length": 16,
                     "master_seed": seed, **grid},
        "coupling": COUPLINGS[name],
        "flags": {"post_bch": False, "emit_histograms": False, "emit_sweep": False},
    }


def build_workload(name: str, seed: int, toy: bool, work: Path) -> Workload:
    config = run_config(name, seed, toy)
    grid = config["campaign"]
    cells = grid["n_chips"] * UNITS_PER_ID * len(grid["voltages_v"])
    rows = grid["n_chips"] * len(grid["voltages_v"]) * grid["samples_per_chip"]
    words = cells * (grid["samples_per_chip"] + grid["enroll_repetitions"])
    cfg_path = work / "config.json"
    common = ["--config", str(cfg_path), "--seed", str(seed), "--threads", "1"]

    def simulate(out: Path, label: str) -> Command:
        return Command(label, ["simulate", *common, "--out", str(out)],
                       {"dataset.csv": out / "dataset.csv",
                        "dataset.json": out / "dataset.json"},
                       [check_rows(rows)])

    def metrics(data: Path, out: Path, post_bch: bool) -> Command:
        label, report = (("metrics_post_bch_s", "report_post_bch.json") if post_bch
                         else ("metrics_raw_s", "report.json"))
        args = ["metrics", str(data / "dataset.csv"), "--out", str(out)]
        return Command(label, args + ["--post-bch"] * post_bch,
                       {report: out / "report.json"})

    if name == "campaign":
        def repeat(d: Path) -> list[Command]:
            raw, post = metrics(d, d / "raw", False), metrics(d, d / "post", True)
            raw.checks.append(check_raw_report(d))
            raw.flags["uniqueness_within_40_60"] = flag_uniqueness_band
            post.checks.append(check_post_bch_exact(d))
            post.flags["uncoupled_post_bch_mass0_above_0.99"] = flag_uncoupled_above_floor
            return [simulate(d, "simulate_s"), raw, post]
        return Workload(config, [], repeat, words)

    if name == "sweep":
        def repeat(d: Path) -> list[Command]:
            return [Command("sweep_s", ["sweep", *common, "--out", str(d)],
                            {"sweep.json": d / "sweep.json", "sweep.csv": d / "sweep.csv"},
                            [check_sweep], {"sweep_r2_above_0.9": flag_sweep_r2,
                                            "sweep_monotone_in_abs_dv": flag_sweep_monotone})]
        return Workload(config, [], repeat, words)

    data = work / "data"

    def repeat(d: Path) -> list[Command]:
        post = metrics(data, d / "post", True)
        raw = metrics(data, d / "raw", False)
        raw.checks.append(check_raw_report(data))
        post.checks.append(check_post_bch_exact(data))
        post.flags["coupled_post_bch_mass0_below_0.99"] = flag_coupled_below_floor
        return [raw, post]
    return Workload(config, [simulate(data, "prepare_dataset")], repeat, 0)


# --- child processes -------------------------------------------------------

@dataclass
class Outcome:
    label: str
    repeat: int
    traced: bool
    wall_s: float
    cpu_s: float
    exit_code: int
    peak_rss_mib: float
    digests: dict[str, str] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)
    flags: dict[str, bool] = field(default_factory=dict)

    @property
    def failed(self) -> bool:
        return self.exit_code != 0 or bool(self.errors)


def child_env() -> dict:
    """The checkout's sources first; one BLAS thread, as with `--threads 1`."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(argv: list[str], log: Path, deadline: float) -> tuple[float, float, int, float]:
    """Run argv to completion; return (wall s, CPU s, exit code, peak RSS MiB).

    The child is killed at the deadline (time.monotonic) and then
    reports exit code -9.
    """
    with open(log, "wb") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                                stdout=fh, stderr=subprocess.STDOUT)
        timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (wall, usage.ru_utime + usage.ru_stime, proc.returncode,
            usage.ru_maxrss / 1024.0)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def execute(cmd: Command, repeat: int, spans: Path | None, deadline: float) -> Outcome:
    for path in cmd.outputs.values():
        path.parent.mkdir(parents=True, exist_ok=True)
    log = next(iter(cmd.outputs.values())).parent / f"{cmd.label}.log"
    if spans is None:
        argv = [sys.executable, "-m", "ropuf.cli", *cmd.args]
    else:
        argv = [sys.executable, str(HERE / "traced_cli.py"), str(spans), *cmd.args]
    wall, cpu, code, rss = run_child(argv, log, deadline)
    outcome = Outcome(cmd.label, repeat, spans is not None, wall, cpu, code, rss)
    if code != 0:
        outcome.errors.append(f"exit code {code}: {log.read_text(errors='replace')[-400:]}")
        return outcome
    try:
        outcome.digests = {name: sha256(path) for name, path in cmd.outputs.items()}
        outcome.errors += [e for e in (check(cmd.outputs) for check in cmd.checks) if e]
        outcome.flags = {name: flag(cmd.outputs) for name, flag in cmd.flags.items()}
    except (OSError, ValueError, KeyError, TypeError, IndexError, ZeroDivisionError) as exc:
        outcome.errors.append(f"unreadable output: {exc!r}")
    return outcome


# --- per-layer metrics from spans -------------------------------------------

def layer_totals(span_files: list[Path]) -> dict[str, float]:
    """Calls, total and self seconds per span name, plus the counters.

    Self time is a span's duration minus the durations of its direct
    children.
    """
    totals: dict[str, float] = {}
    for path in span_files:
        data = _json(path)
        names, spans = data["names"], data["spans"]
        covered = [0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= 0:
                covered[parent] += end - start
        for i, (name, start, end, _) in enumerate(spans):
            key = names[name]
            totals[key + ".calls"] = totals.get(key + ".calls", 0) + 1
            totals[key + ".s"] = totals.get(key + ".s", 0.0) + (end - start) / 1e9
            totals[key + ".self_s"] = (totals.get(key + ".self_s", 0.0)
                                       + (end - start - covered[i]) / 1e9)
        for key, value in data["counters"].items():
            totals[key] = totals.get(key, 0) + value
    return totals


SPAN_NAMES = {name for _, _, name in BOUNDARIES}
COUNT_STATS = {"calls", "bytes", "failed", "corrected"}
TIME_STATS = {"s", "self_s"}


def layer_metric(name: str, totals: dict) -> float:
    span, _, stat = name.rpartition(".")
    if span not in SPAN_NAMES or stat not in COUNT_STATS | TIME_STATS | {"fail_ratio"}:
        raise BenchmarkError(f"per-layer metric {name!r} is not measured by the trace")
    if stat == "fail_ratio":
        calls = totals.get(span + ".calls", 0)
        return totals.get(span + ".failed", 0) / calls if calls else 0.0
    return totals.get(name, 0)


# --- the run ---------------------------------------------------------------

def load_spec() -> dict:
    try:
        spec = _json(ROOT / "BENCHMARK.json")
        return {"end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
                "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]}}
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise BenchmarkError(f"cannot read BENCHMARK.json: {exc!r}") from exc


def machine_record(numpy_version: str) -> dict:
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": numpy_version}


def setup_probe(work: Path, deadline: float) -> dict:
    """`import ropuf` in a fresh interpreter: its wall time `s`, the
    module file, the numpy version and the host loop time."""
    log = work / "setup.log"
    _, _, code, _ = run_child([sys.executable, "-c", SETUP_PROBE], log, deadline)
    if code != 0:
        raise BenchmarkError(f"import ropuf failed: {log.read_text()[-400:]}")
    probe = json.loads(log.read_text().splitlines()[-1])
    if not Path(probe["file"]).resolve().is_relative_to(ROOT / "src"):
        raise BenchmarkError(f"imported ropuf from {probe['file']}, not {ROOT / 'src'}")
    return probe


@dataclass
class Repeat:
    traced: bool
    outcomes: list[Outcome]
    spans: list[Path | None]

    @property
    def wall_s(self) -> float:
        return sum(o.wall_s for o in self.outcomes)


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool,
                  toy: bool = False, work_root: Path | None = None) -> dict:
    """Run one workload; return the record (the printed result is in it)."""
    deadline = time.monotonic() + RUN_LIMIT_S
    if not (ROOT / "src" / "ropuf" / "__init__.py").is_file():
        raise BenchmarkError(f"no ropuf sources under {ROOT / 'src'}")
    spec = load_spec()
    work = (work_root or ROOT / ".perfbench_work") / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    load_start = list(os.getloadavg())

    # Set-up probes are spread over the run, so that a slow spell of the
    # host does not meet all of them.
    probes = [setup_probe(work, deadline) for _ in range(3)]
    wl = build_workload(workload, seed, toy, work)
    (work / "config.json").write_text(json.dumps(wl.config, indent=2) + "\n")
    prepared = [execute(cmd, -1, None, deadline) for cmd in wl.prepare]

    repeats: list[Repeat] = []
    loop_start = time.monotonic()
    while True:
        for traced in ((False, True) if trace else (False,)):
            d = work / f"repeat-{len(repeats)}"
            rep = Repeat(traced, [], [])
            for k, cmd in enumerate(wl.repeat(d)):
                span_file = d / f"spans-{k}.json" if traced else None
                rep.outcomes.append(execute(cmd, len(repeats), span_file, deadline))
                rep.spans.append(span_file if span_file and span_file.exists() else None)
            repeats.append(rep)
        if len(probes) < SETUP_PROBES:
            probes += [setup_probe(work, deadline) for _ in range(2)]
        # Stop where the next round, as long as the last one, would end
        # after --seconds, but not before every command has run twice, so
        # that byte-identical outputs are checked on every run.
        now = time.monotonic()
        last = sum(r.wall_s for r in repeats[-2 if trace else -1:])
        if now + last > deadline or (len(repeats) >= 2
                                     and now - loop_start + last > seconds):
            break
    probes += [setup_probe(work, deadline) for _ in range(SETUP_PROBES - len(probes))]

    outcomes = prepared + [o for r in repeats for o in r.outcomes]
    digests = check_identical(outcomes)
    untraced = [r for r in repeats if not r.traced]
    layers = per_layer([r for r in repeats if r.traced], spec, untraced) if trace else {}
    e2e = end_to_end(wl, [p["s"] for p in probes], untraced, outcomes)
    if trace:
        metrics = {n: {"value": layers[n], "unit": u} for n, u in spec["per_layer"].items()}
        write_trace(work / "trace.json", workload, seed, [r for r in repeats if r.traced])
    else:
        metrics = {n: {"value": e2e[n], "unit": u} for n, u in spec["end_to_end"].items()}
    failed = sum(o.failed for o in outcomes)
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "toy": toy, "config": wl.config,
        "machine": machine_record(probes[0]["numpy"]) | {
            "loadavg_start": load_start, "loadavg_end": list(os.getloadavg()),
            "host_loop_s": statistics.median(p["host_loop_s"] for p in probes)},
        "repeats": len(repeats),
        "end_to_end": e2e,
        "setup_s_samples": [p["s"] for p in probes],
        "flags": flags_of(outcomes),
        "digests": digests,
        "digest_check": digest_check(workload, seed, toy, digests),
        "commands": [o.__dict__ | {"failed": o.failed} for o in outcomes],
        "result": {"correct": failed == 0, "attempted": len(outcomes),
                   "failed": failed, "metrics": metrics},
    }
    (work / "record.json").write_text(json.dumps(record, indent=2) + "\n")
    return record


def check_identical(outcomes: list[Outcome]) -> dict[str, str]:
    """Fail every repeat whose outputs differ from the first one of the
    same command; return the first repeat's digests by file."""
    first: dict[str, dict] = {}
    for o in outcomes:
        if o.exit_code == 0 and o.digests:
            if o.digests != first.setdefault(o.label, o.digests):
                o.errors.append("outputs differ from the first repeat")
    return {name: d for per_cmd in first.values() for name, d in per_cmd.items()}


def end_to_end(wl: Workload, setup_times: list[float], untraced: list[Repeat],
               outcomes: list[Outcome]) -> dict[str, float]:
    e2e = {"setup_s": statistics.median(setup_times)}
    by_label: dict[str, list[float]] = {}
    for o in (o for r in untraced for o in r.outcomes):
        by_label.setdefault(o.label, []).append(o.wall_s)
    for label, walls in by_label.items():
        e2e[label] = statistics.median(walls)
    e2e["pipeline_s"] = statistics.median(r.wall_s for r in untraced)
    sampling = e2e.get("simulate_s") or e2e.get("sweep_s")
    if wl.words and sampling:
        e2e["sim_words_per_s"] = wl.words / sampling
    e2e["peak_rss_mib"] = max(o.peak_rss_mib for r in untraced for o in r.outcomes)
    e2e["ops_failed_ratio"] = sum(o.failed for o in outcomes) / len(outcomes)
    return e2e


def per_layer(traced: list[Repeat], spec: dict, untraced: list[Repeat]) -> dict[str, float]:
    """Per-layer metrics: counts from the first traced repeat, which every
    other traced repeat must match exactly, and medians of times."""
    per_repeat = [layer_totals([s for s in r.spans if s]) for r in traced]
    layers = {}
    for name in spec["per_layer"]:
        if name == "trace.overhead_s":
            layers[name] = (statistics.median(r.wall_s for r in traced)
                            - statistics.median(r.wall_s for r in untraced))
            continue
        values = [layer_metric(name, totals) for totals in per_repeat]
        if name.rpartition(".")[2] in TIME_STATS:
            layers[name] = statistics.median(values)
            continue
        layers[name] = values[0]
        if any(v != values[0] for v in values):
            traced[-1].outcomes[-1].errors.append(
                f"{name} differs between traced repeats: {values}")
    return layers


def write_trace(path: Path, workload: str, seed: int, traced: list[Repeat]) -> None:
    """Every span of every traced command; the spans of one command share
    its `id`."""
    commands = []
    for r in traced:
        for o, spans in zip(r.outcomes, r.spans):
            if spans:
                commands.append({"id": len(commands), "repeat": o.repeat, "label": o.label,
                                 **_json(spans)})
    path.write_text(json.dumps({"workload": workload, "seed": seed, "commands": commands},
                               separators=(",", ":")))


def flags_of(outcomes: list[Outcome]) -> dict[str, bool]:
    """A flag holds for the run when it holds on every command that has it."""
    flags: dict[str, bool] = {}
    for o in outcomes:
        for name, value in o.flags.items():
            flags[name] = flags.get(name, True) and value
    return flags


def digest_check(workload: str, seed: int, toy: bool, digests: dict) -> str:
    """'match', 'mismatch' or 'unpinned' against perfbench/digests.json.

    A mismatch is not a failure: a deliberate change of the output bits
    shows here until the table is pinned again.
    """
    if toy:
        return "unpinned"
    pinned = _json(HERE / "digests.json").get(workload, {}).get(str(seed))
    if pinned is None:
        return "unpinned"
    return "match" if digests == pinned else "mismatch"


def summary_lines(record: dict) -> list[str]:
    e2e = record["end_to_end"]
    result = record["result"]
    lines = [f"workload {record['workload']} seed {record['seed']}: "
             f"{record['repeats']} repeats, {result['attempted']} commands, "
             f"{result['failed']} failed"]
    lines += [f"  {name:20s} {e2e[name]:.6g} {unit}"
              for name, unit in E2E_UNITS.items() if name in e2e]
    if record["trace"]:
        lines += [f"  {name:36s} {m['value']:.6g} {m['unit']}"
                  for name, m in result["metrics"].items()]
    lines.append(f"  flags: {json.dumps(record['flags'])}")
    lines.append(f"  digests: {record['digest_check']}")
    for o in record["commands"]:
        for error in o["errors"]:
            lines.append(f"  FAILED {o['label']} (repeat {o['repeat']}): {error}")
    lines.append(f"  machine: {json.dumps(record['machine'])}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    try:
        record = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print("\n".join(summary_lines(record)))
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
