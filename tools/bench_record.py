#!/usr/bin/env python3
"""Merge the three workloads' benchmark records into one BENCH_<n>.json.

Run every workload with tracing first, from the repository root:

    for w in campaign sweep evaluate_coupled; do
        python3 perfbench/run.py --workload $w --seed 1 --seconds 20 --trace 1
    done
    python3 tools/bench_record.py BENCH_2.json --label "stream v2 sampler"

A traced run holds both parts of a record: the end-to-end medians of its
untraced repeats and the per-layer metrics of its traced ones.  The file
written keeps, per workload, those two parts, the failure count and the
digest check, plus the machine record of the first workload and the
absolute root path of the checkout that ran them (the parent of the work
directory, where perfbench writes its records): peak RSS moves by a few
tenths of a MiB with that path, so records compare only across checkouts
whose paths have the same length.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

WORKLOADS = ("campaign", "sweep", "evaluate_coupled")


def merge(work: Path, label: str) -> dict:
    workloads, machine = {}, None
    for name in WORKLOADS:
        path = work / name / "record.json"
        record = json.loads(path.read_text())
        if not record["trace"] or record["toy"]:
            raise ValueError(f"{path} is not a traced full-scale run")
        machine = machine or record["machine"]
        workloads[name] = {
            "seed": record["seed"],
            "repeats": record["repeats"],
            "failed": record["result"]["failed"],
            "attempted": record["result"]["attempted"],
            "digest_check": record["digest_check"],
            "end_to_end": record["end_to_end"],
            "per_layer": {k: m["value"] for k, m in record["result"]["metrics"].items()},
        }
    return {"label": label, "machine": machine, "checkout": str(work.resolve().parent),
            "workloads": workloads}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("out", type=Path, help="file to write, e.g. BENCH_2.json")
    parser.add_argument("--label", required=True, help="what tree the runs measured")
    parser.add_argument("--work", type=Path, default=Path(".perfbench_work"),
                        help="directory of the workloads' run records")
    args = parser.parse_args(argv)
    try:
        doc = merge(args.work, args.label)
    except (OSError, ValueError, KeyError) as exc:
        print(f"cannot merge records: {exc!r}", file=sys.stderr)
        return 2
    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
