#!/usr/bin/env python3
"""Pin the sha256 digests of every workload's outputs for some seeds.

    python3 perfbench/pin_digests.py 0 1 2

Runs one untraced repeat of each workload per seed and writes the
digests into `perfbench/digests.json`, next to those already pinned.
Runs whose output checks fail are not pinned.  Re-pin only for a
deliberate change of the output bits, and say why where the change is
recorded.
"""
import json
import sys

import run


def main(seeds: list[int]) -> int:
    path = run.HERE / "digests.json"
    table = json.loads(path.read_text())
    for seed in seeds:
        for workload in run.WORKLOADS:
            record = run.run_benchmark(workload, seed, 0, False)
            status = "pinned" if record["result"]["correct"] else "NOT pinned (failed)"
            print(f"{workload} seed {seed}: {status}", flush=True)
            if record["result"]["correct"]:
                table.setdefault(workload, {})[str(seed)] = record["digests"]
    for workload in table:
        table[workload] = dict(sorted(table[workload].items(), key=lambda kv: int(kv[0])))
    path.write_text(json.dumps(table, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main([int(s) for s in sys.argv[1:]]))
