#!/usr/bin/env python3
"""Compare two source trees on one benchmark workload, in alternating pairs.

    python3 tools/bench_pairs.py PARENT CHANGE --workload evaluate_coupled \\
        --pairs 10 --first-seed 11

Pair i runs `perfbench/run.py --workload W --seed S+i --seconds X
--trace 0` once on each tree, the parent first in even pairs and the
change first in odd ones, so a drift of the host does not favour one
side.  Each run starts from a fresh copy of its tree in one fixed
directory (`--work`): peak RSS moves by a few tenths of a MiB with the
path of the checkout, so both sides run from the same path.

For each end-to-end metric of the change's BENCHMARK.json it prints each
side's median and quartiles, the parent's interquartile range, the
change of the median, and how many pairs the change wins (a tie counts
for neither side).  It then says whether the change's median is worse
than the parent's by more than the metric's relative `bound`, or that
this is unresolved: the parent's interquartile range is wider than
`bound` times its median, so the runs spread too widely to tell, and not
every run of the change beats every run of the parent.  It also says
whether a gain may be claimed: at least nine tenths of the pairs won and
a median gain larger than the parent's interquartile range.  For each
side it names the command that set the workload's peak_rss_mib (the
peak over its timed commands) in most runs, and that command's median
peak over every timed run of it, read from the `commands` of each run
record.  For every other end-to-end figure of the run record (the
command times and `pipeline_s`, which no bound gates) it prints each
side's median, the change of the median, the parent's interquartile
range and in how many pairs the change read lower.  It also says in how
many pairs the two sides wrote the same output digests.  Exits 1 if any
run failed or printed no result.
"""
from __future__ import annotations

import argparse
import collections
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

# Left behind by building, testing and benchmarking; not part of a tree.
SKIP = shutil.ignore_patterns(".git", ".perfbench_work", "__pycache__", ".pytest_cache",
                              ".hypothesis", "*.egg-info")


def run_tree(tree: Path, dest: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run of tree, copied to dest: its printed result plus
    the output digests and the per-command peak RSS of its run record;
    {"failed": 1} if it broke."""
    shutil.rmtree(dest, ignore_errors=True)
    shutil.copytree(tree, dest, ignore=SKIP)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=dest, capture_output=True, text=True)
    try:
        result = json.loads(proc.stdout.splitlines()[-1])
        record = json.loads((dest / ".perfbench_work" / workload / "record.json").read_text())
        result["digests"] = record["digests"]
        result["e2e"] = record["end_to_end"]
        result["peaks"] = {}  # label -> peak RSS of each timed run of that command
        for o in record["commands"]:
            if o["repeat"] >= 0 and not o["traced"]:  # as peak_rss_mib counts them
                result["peaks"].setdefault(o["label"], []).append(o["peak_rss_mib"])
    except (IndexError, ValueError, OSError, KeyError) as exc:
        print(f"    no result (exit {proc.returncode}): {exc!r}\n{proc.stderr[-400:]}",
              file=sys.stderr)
        return {"failed": 1, "metrics": {}, "e2e": {}, "digests": None, "peaks": {}}
    if proc.returncode != 0:
        result["failed"] = max(1, result.get("failed", 0))
    return result


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summary(name: str, unit: str, lower_better: bool, bound: float, parent: list[float],
            change: list[float]) -> list[str]:
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    wins = sum((c < p) if lower_better else (c > p) for p, c in zip(parent, change))
    gain = pm - cm if lower_better else cm - pm  # > 0: the change's median is better
    worse = -gain > bound * abs(pm)
    beats_all = max(change) < min(parent) if lower_better else min(change) > max(parent)
    if p3 - p1 > bound * abs(pm) and not beats_all:
        verdict = (f"unresolved, parent IQR wider than {bound * abs(pm):.4f}"
                   f"{' (median WORSE beyond it)' if worse else ''}")
    else:
        verdict = "WORSE than the parent beyond it" if worse else "within it"
    claim = 10 * wins >= 9 * len(parent) and gain > p3 - p1
    return [f"{name} ({unit}, {'lower' if lower_better else 'higher'} is better)",
            f"  parent  median {pm:.4f}  Q1 {p1:.4f}  Q3 {p3:.4f}",
            f"  change  median {cm:.4f}  Q1 {c1:.4f}  Q3 {c3:.4f}",
            f"  median change {cm - pm:+.4f}, parent IQR {p3 - p1:.4f}, "
            f"change wins {wins}/{len(parent)}",
            f"  bound {bound:g} (relative): change median {verdict}",
            f"  claim rule (>= 9/10 wins, median gain > parent IQR): "
            f"{'holds' if claim else 'does not hold'}"]


def ungated(name: str, parent: list[float], change: list[float]) -> str:
    p1, pm, p3 = quartiles(parent)
    cm = statistics.median(change)
    lower = sum(c < p for p, c in zip(parent, change))
    return (f"  {name:20s} parent {pm:.4f}  change {cm:.4f}  ({cm - pm:+.4f}, "
            f"parent IQR {p3 - p1:.4f}, change lower in {lower}/{len(parent)})")


def peak_command(runs: list[dict]) -> str:
    """Which command set peak_rss_mib in most of these runs, and its median peak."""
    setters = collections.Counter(max(r["peaks"], key=lambda label: max(r["peaks"][label]))
                                  for r in runs if r["peaks"])
    if not setters:
        return "no run recorded its commands"
    label, count = setters.most_common(1)[0]
    peaks = [p for r in runs for p in r["peaks"].get(label, [])]
    return (f"peak_rss_mib set by {label} in {count}/{len(runs)} runs, "
            f"its median peak {statistics.median(peaks):.4f} MiB over {len(peaks)} runs of it")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path, help="source tree of the parent")
    parser.add_argument("change", type=Path, help="source tree of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--first-seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--work", type=Path,
                        default=Path(tempfile.gettempdir()) / "ropuf-bench-pairs",
                        help="fixed directory each tree is copied into before its run")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    spec = json.loads((args.change / "BENCHMARK.json").read_text())["end_to_end"]
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    failed = 0
    for i in range(args.pairs):
        seed = args.first_seed + i
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            result = run_tree(trees[side], args.work / "tree", args.workload, seed,
                              args.seconds)
            runs[side].append(result)
            failed += result["failed"] > 0
            values = " ".join(f"{m['name']} {result['metrics'][m['name']]['value']:.4f}"
                              for m in spec if m["name"] in result["metrics"])
            print(f"pair {i} seed {seed} {side}: {values} failed {result['failed']}",
                  flush=True)
    shutil.rmtree(args.work / "tree", ignore_errors=True)
    print(f"\nworkload {args.workload}, {args.pairs} pairs, seeds {args.first_seed}-"
          f"{args.first_seed + args.pairs - 1}, {args.seconds:g} s per run")
    for m in spec:
        name = m["name"]
        if all(name in r["metrics"] for side in runs.values() for r in side):
            parent, change = ([r["metrics"][name]["value"] for r in runs[side]]
                              for side in ("parent", "change"))
            print("\n".join(summary(name, m["unit"], m["better"] == "lower", m["bound"],
                                     parent, change)))
    gated = {m["name"] for m in spec}
    print("not gated (medians):")
    for name in runs["parent"][0]["e2e"]:
        if name not in gated and all(name in r["e2e"] for side in runs.values()
                                     for r in side):
            print(ungated(name, *([r["e2e"][name] for r in runs[side]]
                                  for side in ("parent", "change"))))
    for side in ("parent", "change"):
        print(f"{side}: {peak_command(runs[side])}")
    same = sum(p["digests"] is not None and p["digests"] == c["digests"]
               for p, c in zip(runs["parent"], runs["change"]))
    print(f"outputs: identical digests in {same}/{args.pairs} pairs")
    print(f"failed runs: {failed}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
