"""Run one `ropuf` CLI command with a span recorded at every layer boundary.

    python3 perfbench/traced_cli.py SPANS_JSON <ropuf arguments...>

The public function at each layer boundary is wrapped from here, so the
program's source stays untouched.  Calls of `keyed_rng`, `sample_word`
and `enroll_id` are counted only where `chipsim` makes them (the names
`chipsim` imported), so the sampler's own calls inside `enroll_id` stay
inside the `enroll_id` span.

Spans are kept in memory and written to SPANS_JSON when the command
ends: a table of names, one `[name, start_ns, end_ns, parent]` row per
span (parent is a row index, -1 for none), and deterministic counters
(decode outcomes, dataset bytes).  The exit code is the command's.
"""
from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from collections import Counter
from pathlib import Path


# (module, attribute, span name): the public function at each layer
# boundary, patched where its callers look it up.
BOUNDARIES = (
    ("chipsim", "keyed_rng", "rng.keyed_rng"),
    ("chipsim", "sample_word", "sampler.sample_word"),
    ("chipsim", "enroll_id", "sampler.enroll_id"),
    ("chipsim", "run_campaign", "chipsim.run_campaign"),
    ("chipsim", "save_dataset", "chipsim.save_dataset"),
    ("chipsim", "load_dataset", "chipsim.load_dataset"),
    ("chipsim", "voltage_sweep", "chipsim.voltage_sweep"),
    ("ro", "realize_ro", "ro.realize_ro"),
    ("metrics", "compute_report", "metrics.compute_report"),
    ("metrics", "corrected_sample_words", "metrics.corrected_sample_words"),
    ("bch", "decode", "bch.decode"),
    ("bch", "fe_enroll", "bch.fe_enroll"),
    ("cli", "main", "cli.main"),
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list[int]] = []
        self.counters: Counter = Counter()
        self._stack = [-1]

    def span(self, name: str, fn):
        """fn wrapped so that every call records one span named name."""
        if name not in self.names:
            self.names.append(name)
        idx = self.names.index(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            row = [idx, clock(), 0, stack[-1]]
            stack.append(len(spans))
            spans.append(row)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                row[2] = clock()
        return traced

    def patch(self, owner, attr: str, name: str) -> None:
        setattr(owner, attr, self.span(name, getattr(owner, attr)))

    def to_json_dict(self) -> dict:
        return {"names": self.names, "spans": self.spans,
                "counters": dict(sorted(self.counters.items()))}


def _file_bytes(*paths) -> int:
    return sum(os.path.getsize(p) for p in paths if os.path.exists(p))


def instrument(tracer: Tracer) -> None:
    from ropuf import bch, chipsim
    from ropuf.errors import DecodeFailure

    decode = bch.decode

    def counted_decode(received):
        try:
            word, n_errors = decode(received)
        except DecodeFailure:
            tracer.counters["bch.decode.failed"] += 1
            raise
        tracer.counters["bch.decode.corrected"] += n_errors > 0
        return word, n_errors
    bch.decode = counted_decode

    save_dataset, load_dataset = chipsim.save_dataset, chipsim.load_dataset

    def counted_save(dataset, csv_path, sidecar_path):
        save_dataset(dataset, csv_path, sidecar_path)
        tracer.counters["chipsim.save_dataset.bytes"] += _file_bytes(csv_path, sidecar_path)
    chipsim.save_dataset = counted_save

    def counted_load(csv_path, sidecar_path):
        tracer.counters["chipsim.load_dataset.bytes"] += _file_bytes(csv_path, sidecar_path)
        return load_dataset(csv_path, sidecar_path)
    chipsim.load_dataset = counted_load

    for module, attr, name in BOUNDARIES:
        tracer.patch(importlib.import_module(f"ropuf.{module}"), attr, name)


def main(argv: list[str]) -> int:
    spans_path, cli_args = Path(argv[0]), argv[1:]
    tracer = Tracer()
    instrument(tracer)
    from ropuf import cli
    try:
        return cli.main(cli_args)
    finally:
        spans_path.write_text(json.dumps(tracer.to_json_dict(), separators=(",", ":")))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
