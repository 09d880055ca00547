"""Command-line front end.

Subcommands: simulate, metrics, sweep, bch-selftest, cost.  Every
command is deterministic given its inputs; data files never contain
timestamps or environment state.

Exit codes: 0 success, 2 configuration error (a configuration too
large to allocate included), 3 data error, 4 self-test failure.

Each command imports the modules it runs and nothing else, so `cost`,
`--help`, a usage error, `metrics` and `bch-selftest` never load numpy,
`sweep` loads neither the dataset module nor `csv`, and no command loads
hashlib.  The modules a command runs that need no numpy are imported
before `chipsim`, which loads numpy: a module compiled after numpy can
raise the peak RSS.  `main` runs alike as a program and in-process.
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


def _campaign(cfg, threads: int):
    """The chipsim.Campaign of run configuration cfg, every check done and
    nothing sampled yet.  threads is checked (>= 1) and otherwise ignored:
    a campaign runs in one process."""
    if threads < 1:
        raise ConfigurationError(f"threads must be >= 1, got {threads}")
    from . import chipsim
    chips = chipsim.build_population(cfg.campaign, cfg.ro_params, cfg.coupling)
    return chipsim.Campaign(chips, cfg.campaign, cfg.ro_params, cfg.coupling)


def cmd_simulate(args) -> int:
    # The numpy-free modules first (see the module docstring): dataset is
    # chipsim.save_dataset's home, and metrics writes the report.
    from . import config, dataset  # noqa: F401
    cfg = config.load(args.config, master_seed=args.seed)
    if cfg.flags.emit_histograms:
        from . import metrics
    from . import chipsim
    campaign = _campaign(cfg, args.threads)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    emit_sweep = cfg.flags.emit_sweep and len(cfg.campaign.voltages) >= 2
    # Streamed chip by chip unless a report or a sweep needs the whole grid.
    data = (chipsim.run_campaign(campaign.chips, cfg.campaign, cfg.ro_params, cfg.coupling)
            if cfg.flags.emit_histograms or emit_sweep else campaign)
    chipsim.save_dataset(data, out / "dataset.csv", out / "dataset.json")
    n_rows = cfg.campaign.n_chips * len(cfg.campaign.voltages) * cfg.campaign.samples_per_chip
    print(f"wrote {out / 'dataset.csv'} ({n_rows} rows) and {out / 'dataset.json'}")
    if cfg.flags.emit_histograms:
        report = metrics.compute_report(data, post_bch=cfg.flags.post_bch)
        report.save_json(out / "report.json")
        metrics.write_histogram_csv(out / "histograms.csv", [report.intra, report.inter])
        print(f"wrote {out / 'report.json'} and {out / 'histograms.csv'}")
    if emit_sweep:
        _write_sweep_files(out, chipsim.voltage_sweep(data))
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
    report.save_json(out / "report.json")
    if args.histograms:
        metrics.write_histogram_csv(out / "histograms.csv", [report.intra, report.inter])
    stage = "post-BCH" if args.post_bch else "raw"
    print(f"metrics at {report.voltage} V ({stage}, L={report.id_length}):")
    for line in report.summary_lines():
        print(line)
    return EXIT_OK


def _write_sweep_files(out: Path, series) -> dict:
    from . import chipsim
    fit = chipsim.fit_sweep(series)
    # The lines csv.writer would write: no repr of a number needs quotes.
    with open(out / "sweep.csv", "w", newline="") as fh:  # CSV lines end in \r\n
        fh.write("delta_v,abs_delta_v,hd_shift\r\n")
        fh.writelines(f"{dv!r},{abs(dv)!r},{shift!r}\r\n" for dv, shift in series)
    (out / "sweep.json").write_text(json.dumps(
        {"series": [[dv, shift] for dv, shift in series], "fit_vs_abs_dv": fit},
        indent=2) + "\n")
    return fit


def cmd_sweep(args) -> int:
    from . import config, chipsim  # in this order (see the module docstring)
    cfg = config.load(args.config, master_seed=args.seed)
    if len(cfg.campaign.voltages) < 2:
        raise ConfigurationError("voltages_v: sweep needs at least two voltages")
    campaign = _campaign(cfg, args.threads)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    fit = _write_sweep_files(out, chipsim.voltage_sweep(campaign))
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


def cmd_cost(args) -> int:
    from . import cost
    params = cost.CostParams(
        transistors_per_ro=args.per_ro,
        transistors_per_ff=args.per_ff,
        transistors_per_mux4=args.per_mux4,
        transistors_per_full_adder=args.per_adder,
        bits_required=args.bits,
        bits_per_word=args.bits_per_word,
        counter_bits=args.counter_bits,
    )
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
        print(f"{'Waveform RO-PUF':24s}{wave[0]:>20d}{wave[1]:>14d}")
        print(f"{'Conventional RO-PUF':24s}{conv[0]:>20d}{conv[1]:>14d}")
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
    p.add_argument("--no-histograms", action="store_false", dest="histograms")
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("sweep", help="voltage sweep: HD shift series and linear fit")
    add_common(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("bch-selftest", help="verify the (31,16,7) codec")
    p.add_argument("--trials", type=int, default=10000,
                   help="random 3-error decode trials")
    p.set_defaults(func=cmd_bch_selftest)

    p = sub.add_parser("cost", help="area/cycle comparison table")
    p.add_argument("--bits", type=int, default=128, help="required output bits")
    p.add_argument("--bits-per-word", type=int, default=16)
    p.add_argument("--counter-bits", type=int, default=16)
    p.add_argument("--per-ro", type=int, default=20, help="transistors per RO")
    p.add_argument("--per-ff", type=int, default=30, help="transistors per FF")
    p.add_argument("--per-mux4", type=int, default=30, help="transistors per 4-input MUX")
    p.add_argument("--per-adder", type=int, default=20, help="transistors per full adder")
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
