"""Memory bounds of the evaluation path: loading holds the dataset's bit
arrays plus one digit buffer, and a report holds one chip's scratch.

The dataset is built from random bits, with no sampling, at acceptance
scale (10 chips x 5000 samples x 32 bits).  Bounds are multiples of the
sample array's size (one byte per bit) and are read with tracemalloc,
which sees numpy's buffers as well as Python objects.
"""
import tracemalloc

import numpy as np
import pytest

from ropuf import bch, chipsim, metrics, ro
from ropuf.config import CampaignConfig

N_CHIPS, T, L = 10, 5000, 32


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    """Paths of a saved random dataset, and its samples' size in bytes."""
    rng = np.random.default_rng(20170302)
    cfg = CampaignConfig(n_chips=N_CHIPS, pairs_per_id=2, word_length=L // 2,
                         samples_per_chip=T, voltages=(1.3,))
    refs = rng.integers(0, 2, (N_CHIPS, L), dtype=np.uint8)
    # About 1.6 flipped bits per row: most rows decode, some fail.
    samples = refs[:, None, :] ^ (rng.random((N_CHIPS, T, L)) < 0.05).astype(np.uint8)
    dataset = chipsim.CampaignDataset(cfg, ro.RoParams(), ro.Coupling.none(),
                                      {1.3: refs}, {1.3: samples})
    out = tmp_path_factory.mktemp("memory")
    chipsim.save_dataset(dataset, out / "dataset.csv", out / "dataset.json")
    return out / "dataset.csv", out / "dataset.json", samples.nbytes


def _traced(fn):
    """fn's result and the peak bytes it allocated above what was live."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_load_peak_within_twice_the_samples(saved):
    csv_path, sidecar, nbytes = saved
    dataset, peak = _traced(lambda: chipsim.load_dataset(csv_path, sidecar))
    assert dataset.samples[1.3].nbytes == nbytes
    assert peak <= 2 * nbytes, f"load_dataset peak {peak / nbytes:.2f}x the samples"


def test_post_bch_report_allocates_within_the_samples(saved):
    csv_path, sidecar, nbytes = saved
    dataset = chipsim.load_dataset(csv_path, sidecar)
    bch._decoder_tables(bch.GENERATOR)  # built once per process, whichever test runs first
    report, peak = _traced(lambda: metrics.compute_report(dataset, post_bch=True))
    assert report.intra.total == N_CHIPS * T
    assert peak <= nbytes, f"compute_report(post_bch=True) peak {peak / nbytes:.2f}x the samples"
