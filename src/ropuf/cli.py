"""Command-line front end.

Subcommands: simulate, metrics, sweep, bch-selftest, cost, one for each
output.  Every command is deterministic given its inputs; data files
never contain timestamps or environment state.  `simulate` streams its
dataset to disk chip by chip and scores nothing: reports come from
`metrics` and sweeps from `sweep`.

Exit codes: 0 success, 2 configuration error (a configuration too
large to allocate included), 3 data error, 4 self-test failure.

Each command imports the modules it runs and nothing else, so `cost`,
`--help`, a usage error, `metrics` and `bch-selftest` never load numpy,
`sweep` loads neither the dataset module nor `csv`, and no command loads
hashlib.  Modules that need no numpy are imported before `chipsim`, which
loads numpy: one compiled after numpy can raise the peak RSS.  `simulate`
and `sweep` check their configuration and `--threads` first, so a run
they refuse loads no numpy.  `main` runs alike as a program and in-process.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import ConfigurationError, DatasetError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_SELFTEST = 4


def _run_config(args):
    """The run configuration of a sampling command, loaded and checked
    with its --threads (>= 1, and otherwise ignored: a campaign runs in one
    process) before the command imports chipsim, which loads numpy."""
    from . import config
    cfg = config.load(args.config, master_seed=args.seed)
    if args.threads < 1:
        raise ConfigurationError(f"threads must be >= 1, got {args.threads}")
    return cfg


def cmd_simulate(args) -> int:
    # The numpy-free modules first (see the module docstring).
    from . import dataset
    cfg = _run_config(args)
    from . import chipsim
    campaign = chipsim.Campaign(cfg.campaign, cfg.ro_params, cfg.coupling)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    csv_path, sidecar = out / "dataset.csv", out / "dataset.json"
    chipsim.save_dataset(campaign, csv_path, sidecar)  # streamed chip by chip
    n_rows = cfg.campaign.n_chips * len(cfg.campaign.voltages) * cfg.campaign.samples_per_chip
    print(f"wrote {csv_path} ({n_rows} rows) and {sidecar}")
    return EXIT_OK


def cmd_metrics(args) -> int:
    from . import metrics
    from .dataset import load_dataset
    csv_path = Path(args.dataset)
    sidecar = Path(args.sidecar) if args.sidecar else csv_path.with_suffix(".json")
    if not csv_path.exists() or not sidecar.exists():
        raise DatasetError(f"dataset files not found: {csv_path}, {sidecar}")
    dataset = load_dataset(csv_path, sidecar)
    report = metrics.compute_report(dataset, post_bch=args.post_bch)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    report.save(out)
    stage = "post-BCH" if args.post_bch else "raw"
    print(f"metrics at {report.voltage} V ({stage}, L={report.id_length}):")
    for line in report.summary_lines():
        print(line)
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg = _run_config(args)
    if len(cfg.campaign.voltages) < 2:
        raise ConfigurationError("voltages_v: sweep needs at least two voltages")
    from . import chipsim
    campaign = chipsim.Campaign(cfg.campaign, cfg.ro_params, cfg.coupling)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    series = chipsim.voltage_sweep(campaign)
    fit = chipsim.fit_sweep(series)
    # The lines csv.writer would write: no repr of a number needs quotes.
    with open(out / "sweep.csv", "w", newline="") as fh:  # CSV lines end in \r\n
        fh.write("delta_v,abs_delta_v,hd_shift\r\n")
        fh.writelines(f"{dv!r},{abs(dv)!r},{shift!r}\r\n" for dv, shift in series)
    (out / "sweep.json").write_text(json.dumps(
        {"series": [[dv, shift] for dv, shift in series], "fit_vs_abs_dv": fit},
        indent=2) + "\n")
    print(f"HD shift vs |dV|: slope {fit['slope']:.3f} bits/V, "
          f"intercept {fit['intercept']:.3f}, R^2 {fit['r2']:.4f}")
    return EXIT_OK


def cmd_bch_selftest(args) -> int:
    from . import bch
    if args.trials < 0:
        raise ConfigurationError(f"--trials must be >= 0, got {args.trials}")
    results = bch.selftest(random_error_trials=args.trials)
    failed = False
    for name, passed in results:
        print(f"{'PASS' if passed else 'FAIL'}  {name}")
        failed |= not passed
    return EXIT_SELFTEST if failed else EXIT_OK


# `cost` options: (option, the CostParams field it sets, help).  An option
# left out leaves its field at the CostParams default.
COST_OPTIONS = (
    ("--bits", "bits_required", "required output bits"),
    ("--bits-per-word", "bits_per_word", None),
    ("--counter-bits", "counter_bits", None),
    ("--per-ro", "transistors_per_ro", "transistors per RO"),
    ("--per-ff", "transistors_per_ff", "transistors per FF"),
    ("--per-mux4", "transistors_per_mux4", "transistors per 4-input MUX"),
    ("--per-adder", "transistors_per_full_adder", "transistors per full adder"),
)


def cmd_cost(args) -> int:
    from . import cost
    params = cost.CostParams(**{name: getattr(args, name) for _, name, _ in COST_OPTIONS
                                if getattr(args, name) is not None})
    wave = cost.waveform_puf_cost(params)
    conv = cost.conventional_puf_cost(params)
    if args.json:
        print(json.dumps({
            "bits_required": params.bits_required,
            "waveform_ro_puf": {"transistors": wave[0], "clock_cycles": wave[1]},
            "conventional_ro_puf": {"transistors": conv[0], "clock_cycles": conv[1]},
        }, indent=2))
    else:
        print(f"{'':24s}{'Area (transistors)':>20s}{'Clock cycles':>14s}")
        print(f"{'Waveform RO-PUF':24s}{wave[0]:>20d} {wave[1]:>13d}")
        print(f"{'Conventional RO-PUF':24s}{conv[0]:>20d} {conv[1]:>13d}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ropuf",
        description="Simulate and evaluate waveform-sampling ring-oscillator PUFs")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True, help="run configuration JSON")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override master seed")
        p.add_argument("--threads", type=int, default=1,
                       help="accepted and ignored: campaigns run in one process; must be >= 1")

    p = sub.add_parser("simulate", help="run a campaign, write dataset CSV + sidecar")
    add_common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("metrics", help="evaluate a dataset written by simulate")
    p.add_argument("dataset", help="dataset CSV path")
    p.add_argument("--sidecar", default=None, help="sidecar JSON (default: CSV stem .json)")
    p.add_argument("--out", default="out", help="output directory")
    p.add_argument("--post-bch", action="store_true", dest="post_bch",
                   help="evaluate error-corrected words")
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("sweep", help="voltage sweep: HD shift series and linear fit")
    add_common(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("bch-selftest", help="verify the (31,16,7) codec")
    p.add_argument("--trials", type=int, default=10000,
                   help="random 3-error decode trials")
    p.set_defaults(func=cmd_bch_selftest)

    p = sub.add_parser("cost", help="area/cycle comparison table")
    for option, name, text in COST_OPTIONS:
        p.add_argument(option, type=int, dest=name,
                       metavar=option[2:].replace("-", "_").upper(), help=text)
    p.add_argument("--json", action="store_true", help="emit JSON instead of a table")
    p.set_defaults(func=cmd_cost)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigurationError, MemoryError) as exc:  # e.g. a grid too large to hold
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DatasetError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
