"""Memory bounds: a loaded dataset holds its samples packed, eight bits
to a byte, loading holds little more than those bytes, a report scores
the packed samples with one chip's scratch, and `simulate` and `sweep`
hold one chip's samples at a time, however many chips there are.  The
BCH self-test enumerates the code's 2^16 codewords as 32-bit words.

The evaluation datasets are built from random bits, with no sampling, at
acceptance scale (10 chips x 5000 samples x 32 bits).  Bounds are
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
from ropuf import bch, chipsim, cli, metrics
from ropuf.config import CampaignConfig, Flags, RunConfig, to_dict

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
    dataset = packed_dataset(cfg, {1.3: refs}, {1.3: samples})
    out = tmp_path_factory.mktemp("memory")
    chipsim.save_dataset(dataset, out / "dataset.csv", out / "dataset.json")
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
    dataset, peak = _traced(lambda: chipsim.load_dataset(csv_path, sidecar))
    assert len(dataset.samples[1.3]) == nbytes // 8
    assert peak <= 0.3 * nbytes, f"load_dataset peak {peak / nbytes:.2f}x the unpacked samples"


def test_post_bch_report_allocates_within_the_samples(saved):
    csv_path, sidecar, nbytes = saved
    dataset = chipsim.load_dataset(csv_path, sidecar)
    bch._decoder_tables(bch.GENERATOR)  # built once per process, whichever test runs first
    report, peak = _traced(lambda: metrics.compute_report(dataset, post_bch=True))
    assert report.intra.total == N_CHIPS * T
    assert peak <= 0.25 * nbytes, \
        f"compute_report(post_bch=True) peak {peak / nbytes:.2f}x the unpacked samples"


def test_bch_selftest_enumerates_codewords_as_words():
    """The minimum-weight check holds the 2^16 codewords as uint32 (256 KiB),
    not a (65536, 16) message matrix and its product (8 MiB and more)."""
    bch._decoder_tables(bch.GENERATOR)  # built once per process, whichever test runs first
    results, peak = _traced(lambda: bch.selftest(random_error_trials=0))
    assert all(ok for _, ok in results), results
    assert peak <= 3 * 2 ** 20, f"selftest(random_error_trials=0) peak {peak / 2 ** 20:.2f} MiB"


def test_voltage_sweep_counts_one_chip_at_a_time():
    n_chips, t, voltages = 40, 200, (1.2, 1.25, 1.3, 1.35, 1.4)
    rng = np.random.default_rng(8)
    cfg = CampaignConfig(n_chips=n_chips, pairs_per_id=2, word_length=L // 2,
                         samples_per_chip=t, voltages=voltages)
    refs = {v: rng.integers(0, 2, (n_chips, L), dtype=np.uint8) for v in voltages}
    samples = {v: rng.integers(0, 2, (n_chips, t, L), dtype=np.uint8) for v in voltages}
    dataset = packed_dataset(cfg, refs, samples)
    series, peak = _traced(lambda: chipsim.voltage_sweep(dataset))
    assert len(series) == len(voltages)
    nbytes = samples[1.3].nbytes
    assert peak <= 0.1 * nbytes, f"voltage_sweep peak {peak / nbytes:.2f}x one voltage's samples"


def _chip_growth(tmp_path, command, voltages, flags) -> float:
    """How much cli.main([command, ...]) peaks higher for 16 chips than for
    4, in chip blocks: one chip's (n_voltages, T, L) unpacked samples."""
    t = 1000

    def peak(n_chips):
        campaign = CampaignConfig(n_chips=n_chips, pairs_per_id=2, word_length=L // 2,
                                  samples_per_chip=t, voltages=voltages)
        config = to_dict(RunConfig(campaign=campaign, flags=flags))
        path = tmp_path / f"run{n_chips}.json"
        path.write_text(json.dumps(config))
        code, peak = _traced(lambda: cli.main([command, "--config", str(path),
                                               "--out", str(tmp_path / str(n_chips))]))
        assert code == 0
        return peak

    block = len(voltages) * t * L
    peak(2)  # first-use allocations (imports, caches) stay out of the comparison
    # 4 chips run first, so any first-use allocation the warm-up missed
    # counts against the smaller run, never for the growth.
    small = peak(4)
    return (peak(16) - small) / block


@pytest.mark.parametrize("command, voltages", [("simulate", (1.3,)), ("sweep", (1.25, 1.3))])
def test_campaign_commands_hold_one_chip(tmp_path, command, voltages):
    """A command's peak grows with the chip count by less than one chip's
    (n_voltages, T, L) sample block (no report or sweep flags are set)."""
    growth = _chip_growth(tmp_path, command, voltages, Flags(emit_histograms=False))
    assert growth < 1, f"{command}: 12 more chips took {growth:.2f} chip blocks"


def test_simulate_with_report_holds_the_grid_packed(tmp_path):
    """With emit_histograms, simulate collects the grid for its report; the
    12 more chips' samples are held packed (1.5 chip blocks), so the peak
    grows by at most 3 chip blocks."""
    growth = _chip_growth(tmp_path, "simulate", (1.3,), Flags(emit_histograms=True))
    assert growth <= 3, f"simulate with a report: 12 more chips took {growth:.2f} chip blocks"
