"""Memory bounds: a loaded dataset holds its samples packed, eight bits
to a byte, loading holds little more than those bytes, a report scores
the packed samples with one chip's scratch and holds no list of chip
pairs, and `simulate` and `sweep` realize each chip as they reach it
and hold one chip's samples at a time, however many chips there are,
and sample that chip one unit and one chunk of rows at a time, in memory
linear in a row's width.
`metrics` holds the grid packed.  The BCH self-test enumerates the
code's 2^16 codewords as 32-bit words.

The evaluation datasets are built from random bits, with no sampling, at
acceptance scale (10 chips x 5000 samples x 32 bits), or with many chips
of two samples each where the chip count is what grows.  Bounds are
multiples of an unpacked sample array's size (one byte per bit) and are
read with tracemalloc, which sees numpy's buffers as well as Python
objects.
"""
import gc
import json
import tracemalloc

import numpy as np
import pytest

from conftest import packed_dataset
from ropuf import bch, chipsim, cli, metrics, ro
from ropuf.config import CampaignConfig, RunConfig, to_dict
from ropuf.dataset import load_dataset, save_dataset

N_CHIPS, T, L = 10, 5000, 32


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    """Paths of a saved random dataset, and its unpacked samples' size in bytes."""
    rng = np.random.default_rng(20170302)
    cfg = CampaignConfig(n_chips=N_CHIPS, pairs_per_id=2, word_length=L // 2,
                         samples_per_chip=T, voltages=(1.3,))
    refs = rng.integers(0, 2, (N_CHIPS, L), dtype=np.uint8)
    # About 1.6 flipped bits per row: most rows decode, some fail.
    samples = refs[:, None, :] ^ (rng.random((N_CHIPS, T, L)) < 0.05).astype(np.uint8)
    dataset = packed_dataset(cfg, refs, {1.3: samples})
    out = tmp_path_factory.mktemp("memory")
    save_dataset(dataset, out / "dataset.csv", out / "dataset.json")
    return out / "dataset.csv", out / "dataset.json", samples.nbytes


def _traced(fn):
    """fn's result and the peak bytes it allocated above what was live."""
    gc.collect()  # garbage left by earlier work is not fn's to free during the run
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_load_holds_packed_samples_within_the_unpacked_size(saved):
    csv_path, sidecar, nbytes = saved
    dataset, peak = _traced(lambda: load_dataset(csv_path, sidecar))
    assert sum(len(cells[0]) for _, cells in dataset) == nbytes // 8
    assert peak <= 0.3 * nbytes, f"load_dataset peak {peak / nbytes:.2f}x the unpacked samples"


def test_post_bch_report_allocates_within_the_samples(saved):
    csv_path, sidecar, nbytes = saved
    dataset = load_dataset(csv_path, sidecar)
    bch._decoder_tables()  # built once per process, whichever test runs first
    report, peak = _traced(lambda: metrics.compute_report(dataset, post_bch=True))
    assert sum(report.intra) == N_CHIPS * T
    assert peak <= 0.25 * nbytes, \
        f"compute_report(post_bch=True) peak {peak / nbytes:.2f}x the unpacked samples"


def test_bch_selftest_enumerates_codewords_as_words():
    """The minimum-weight check holds the 2^16 codewords as uint32 (256 KiB),
    not a (65536, 16) message matrix and its product (8 MiB and more)."""
    bch._decoder_tables()  # built once per process, whichever test runs first
    results, peak = _traced(lambda: bch.selftest(random_error_trials=0))
    assert all(ok for _, ok in results), results
    assert peak <= 3 * 2 ** 20, f"selftest(random_error_trials=0) peak {peak / 2 ** 20:.2f} MiB"


def test_voltage_sweep_counts_one_chip_at_a_time():
    n_chips, t, voltages = 40, 200, (1.2, 1.25, 1.3, 1.35, 1.4)
    rng = np.random.default_rng(8)
    cfg = CampaignConfig(n_chips=n_chips, pairs_per_id=2, word_length=L // 2,
                         samples_per_chip=t, voltages=voltages)
    refs = rng.integers(0, 2, (n_chips, L), dtype=np.uint8)
    samples = {v: rng.integers(0, 2, (n_chips, t, L), dtype=np.uint8) for v in voltages}
    dataset = packed_dataset(cfg, refs, samples)
    series, peak = _traced(lambda: chipsim.voltage_sweep(dataset))
    assert len(series) == len(voltages)
    nbytes = samples[1.3].nbytes
    assert peak <= 0.1 * nbytes, f"voltage_sweep peak {peak / nbytes:.2f}x one voltage's samples"


def test_campaign_samples_a_chip_in_chunks():
    """Sampling one chip block (1 voltage x 5000 samples x 32 bits, 99
    enrollment repetitions) peaks within 350 KiB: the kernel works on one
    chunk of rows at a time and packs each chunk as it is sampled."""
    cfg = CampaignConfig(n_chips=2, pairs_per_id=2, word_length=L // 2, samples_per_chip=T,
                         enroll_repetitions=99, voltages=(1.3,))
    params = ro.RoParams()
    chips = iter(chipsim.Campaign(cfg, params))
    next(chips)  # first-use allocations (caches, the streams' setup) stay out
    (ref, cells), peak = _traced(lambda: next(chips))
    assert len(ref) == L // 8 and [len(s) for s in cells] == [T * L // 8]
    assert peak <= 350 * 1024, f"one chip block peaked at {peak / 1024:.0f} KiB"


def test_sampling_kernel_is_linear_in_the_row_width():
    """One 64-row sample_rows call at L = 1024 (B1 = 3079 RO1 boundaries a
    row) peaks within 64 bytes for each of its rows x (L + B1) edges and
    boundaries: each edge's toggles are its rank in a merge of the row,
    where comparing every edge with every boundary, (rows, L, B1) at once,
    peaked at about 780 bytes (195 MiB)."""
    length, rows = 1024, 64
    b1w, _ = chipsim.normal_widths(length)
    unit = chipsim.PufUnit(ro.RoInstance(1e-9, 0.5, 0.0003), ro.RoInstance(1.2e-9, 0.5, 0.0003),
                           word_length=length)
    g1, g2 = chipsim.draw_rows(np.random.default_rng(length), rows, length)
    # T2/T1 = 1.2 stays within the rows' coverage, so no row extends.
    words, peak = _traced(lambda: chipsim.sample_rows(unit, 1.3, g1, g2, None))
    assert words.shape == (rows, length)
    elements = rows * (length + b1w)
    assert peak <= 64 * elements, f"sample_rows peaked at {peak / elements:.0f} bytes an element"


def test_campaign_holds_one_unit_at_a_time():
    """One chip block's peak grows by at most 64 bytes a unit from 256 to
    2048 units of 4-bit words (1 sample, 1 enrollment repetition), where
    the block itself grows by 1 byte a unit: each unit is realized, sampled
    and ORed into the block before the next, where holding every unit of a
    chip and two open streams a unit took about 2.5 KiB a unit."""
    def peak(units):
        cfg = CampaignConfig(n_chips=2, pairs_per_id=units, word_length=4, samples_per_chip=1,
                             enroll_repetitions=1, voltages=(1.3,))
        chips = iter(chipsim.Campaign(cfg, ro.RoParams()))
        next(chips)  # first-use allocations stay out
        (ref, cells), peak = _traced(lambda: next(chips))
        assert [len(ref)] == [len(s) for s in cells] == [units // 2]
        return peak

    growth = (peak(2048) - peak(256)) / (2048 - 256)
    assert growth <= 64, f"one chip block took {growth:.1f} bytes a unit"


def _run_peak(argv) -> int:
    """The peak the run of the command line argv allocates, its arguments
    parsed."""
    # Parsed outside the trace: argparse leaves reference cycles whose
    # collection would otherwise fall inside one run or the other.
    args = cli.build_parser().parse_args(argv)
    code, peak = _traced(lambda: args.func(args))
    assert code == 0
    return peak


def _command_peak(tmp_path, command, campaign) -> int:
    """The peak a sampling command's run allocates for the run
    configuration of campaign, written to tmp_path/<n_chips>."""
    path = tmp_path / f"run{campaign.n_chips}.json"
    path.write_text(json.dumps(to_dict(RunConfig(campaign=campaign))))
    return _run_peak([command, "--config", str(path),
                      "--out", str(tmp_path / str(campaign.n_chips))])


GROWTH_T = 1000  # samples a chip in the runs _chip_growth compares


def _growth_campaign(n_chips, voltages) -> CampaignConfig:
    return CampaignConfig(n_chips=n_chips, pairs_per_id=2, word_length=L // 2,
                          samples_per_chip=GROWTH_T, voltages=voltages)


def _chip_growth(peaks, voltages) -> float:
    """How much a command's run peaks higher for 16 chips than for 4, in
    chip blocks: one chip's (n_voltages, T, L) unpacked samples.  peaks
    maps 2, 4 and 16 chips to the peaks of runs made in that order: the
    first-use allocations (imports, caches) fall in the 2-chip run, and any
    the warm-up missed count against the smaller run, never for the growth."""
    return (peaks[16] - peaks[4]) / (len(voltages) * GROWTH_T * L)


@pytest.mark.parametrize("command, voltages", [("simulate", (1.3,)), ("sweep", (1.25, 1.3))])
def test_campaign_commands_hold_one_chip(tmp_path, command, voltages):
    """A command's peak grows with the chip count by less than one chip's
    (n_voltages, T, L) sample block."""
    peaks = {n: _command_peak(tmp_path, command, _growth_campaign(n, voltages))
             for n in (2, 4, 16)}
    growth = _chip_growth(peaks, voltages)
    assert growth < 1, f"{command}: 12 more chips took {growth:.2f} chip blocks"


def test_metrics_holds_the_grid_packed(tmp_path):
    """`metrics` over the datasets `simulate` writes for 2, 4 and 16 chips,
    run in that order: its peak, from loading the files to writing the
    report, grows by at most 3 chip blocks for 12 more chips.  The loaded
    grid is held packed (1.5 chip blocks), and the report scores one chip
    at a time."""
    peaks = {}
    for n in (2, 4, 16):
        path, out = tmp_path / f"run{n}.json", tmp_path / str(n)
        path.write_text(json.dumps(to_dict(RunConfig(campaign=_growth_campaign(n, (1.3,))))))
        assert cli.main(["simulate", "--config", str(path), "--out", str(out)]) == 0
        peaks[n] = _run_peak(["metrics", str(out / "dataset.csv"), "--out", str(out)])
    growth = _chip_growth(peaks, (1.3,))
    assert growth <= 3, f"metrics: 12 more chips took {growth:.2f} chip blocks"


def test_report_holds_no_chip_pair_list():
    """compute_report's peak grows with the chip count by at most 1 KiB a
    chip, from 50 to 800 chips: their 319,600 distances are counted as they
    are computed, where a list of them would hold 8 bytes a pair (over 3 KiB
    a chip)."""
    rng = np.random.default_rng(800)

    def peak(n_chips):
        cfg = CampaignConfig(n_chips=n_chips, pairs_per_id=2, word_length=L // 2,
                             samples_per_chip=2, voltages=(1.3,))
        refs = rng.integers(0, 2, (n_chips, L), dtype=np.uint8)
        data = packed_dataset(cfg, refs, {1.3: np.stack([refs, refs], axis=1)})
        report, peak = _traced(lambda: metrics.compute_report(data))
        assert sum(report.inter) == n_chips * (n_chips - 1) // 2
        return peak

    peak(10)  # first-use allocations stay out of the comparison
    growth = (peak(800) - peak(50)) / 750
    assert growth <= 1024, f"compute_report took {growth:.0f} bytes a chip"


@pytest.mark.parametrize("command, voltages, bound", [("simulate", (1.3,), 1024),
                                                       ("sweep", (1.25, 1.3), 256)])
def test_campaign_commands_realize_each_chip_as_they_reach_it(tmp_path, command, voltages,
                                                               bound):
    """A command's peak grows with the chip count by at most bound bytes a
    chip, from 50 to 400 chips of two samples each, every flag off: each
    chip is realized as the campaign reaches it, where a population built
    up front held about 1 KiB a chip.  What simulate still holds a chip for
    is the sidecar's hex reference, one a chip whatever the voltage count:
    791 bytes at one, two and five voltages and hash seeds 0-7, which the
    bound clears by 233 (at five voltages, a reference each took 2 KiB)."""
    def peak(n_chips):
        campaign = CampaignConfig(n_chips=n_chips, pairs_per_id=2, word_length=L // 2,
                                  samples_per_chip=2, enroll_repetitions=1, voltages=voltages)
        return _command_peak(tmp_path, command, campaign)

    peak(10)  # first-use allocations stay out of the comparison
    growth = (peak(400) - peak(50)) / 350
    assert growth <= bound, f"{command} took {growth:.0f} bytes a chip"
