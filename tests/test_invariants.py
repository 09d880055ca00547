"""Invariants of a campaign's streams (stream version 3).

Metamorphic properties over small random campaigns: a sub-grid of
voltages, a prefix of the samples, a prefix of the chips and the row
chunk never change a cell.  Then common random numbers across a voltage
sweep, and the stream layout itself, rebuilt row by row from the
documented keys.
"""
from collections import Counter
from dataclasses import replace
from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

from conftest import HandMadeCampaign, held, make_unit
from oracles import toggle_counts, unpack_rows
from ropuf import chipsim, ro, rng as keyed
from ropuf.chipsim import PufUnit, normal_widths

V0 = 1.3
OFF_V0 = (1.2, 1.25, 1.28, 1.35, 1.4)
INVARIANT = settings(max_examples=30, derandomize=True, deadline=None)


@st.composite
def campaigns(draw):
    """(config, params, coupling, squeeze) of a small campaign.  With
    squeeze 6 the RO1 of each chip's first unit runs 6 times faster, so
    its rows run short of RO1 boundaries and extend from their own
    streams."""
    voltages = draw(st.lists(st.sampled_from(OFF_V0), unique=True, max_size=3))
    voltages.insert(draw(st.integers(0, len(voltages))), V0)
    cfg = chipsim.CampaignConfig(
        n_chips=draw(st.integers(2, 4)), pairs_per_id=draw(st.integers(1, 2)),
        word_length=draw(st.integers(1, 12)), samples_per_chip=draw(st.integers(1, 20)),
        enroll_repetitions=draw(st.integers(1, 5)), voltages=tuple(voltages),
        master_seed=draw(st.integers(0, 2**32 - 1)))
    params = ro.RoParams(process_sigma=draw(st.sampled_from([0.04, 0.2])),
                         jitter_sigma=draw(st.sampled_from([0.05, 0.01, 0.0003, 0.0])),
                         voltage_sensitivity_sigma=draw(st.sampled_from([0.0, 0.15])))
    coupling = draw(st.sampled_from([ro.Coupling(), ro.Coupling("capacitive", 0.5),
                                     ro.Coupling("inverter_loop")]))
    return cfg, params, coupling, draw(st.sampled_from([6.0, 1.0]))


def run(cfg, params, coupling, squeeze):
    realized = chipsim.Campaign(cfg, params, coupling)

    def squeezed(c):
        first, *rest = realized.units(c)
        fast = replace(first.ro1, period_at_ref=first.ro1.period_at_ref / squeeze)
        return (replace(first, ro1=fast), *rest)
    return HandMadeCampaign(cfg, params, coupling, chip_units=squeezed).collect()


def assert_cells_equal(a, b, voltages, chips=slice(None), samples=slice(None)):
    for v in voltages:
        (a_refs, a_cells), (b_refs, b_cells) = held(a, v), held(b, v)
        assert np.array_equal(a_refs[chips], b_refs[chips]), v
        assert np.array_equal(a_cells[chips, samples], b_cells[chips, samples]), v


@INVARIANT
@given(campaigns(), st.data())
def test_voltage_subset_and_order(campaign, data):
    cfg, params, coupling, squeeze = campaign
    full = run(*campaign)
    subset = data.draw(st.lists(st.sampled_from(cfg.voltages), unique=True))
    subset = data.draw(st.permutations(subset + [V0] * (V0 not in subset)))
    part = run(replace(cfg, voltages=tuple(subset)), params, coupling, squeeze)
    assert_cells_equal(full, part, subset)


@INVARIANT
@given(campaigns(), st.data())
def test_fewer_samples_are_a_prefix(campaign, data):
    cfg, params, coupling, squeeze = campaign
    n = data.draw(st.integers(1, cfg.samples_per_chip))
    full = run(*campaign)
    part = run(replace(cfg, samples_per_chip=n), params, coupling, squeeze)
    assert_cells_equal(full, part, cfg.voltages, samples=slice(0, n))


@INVARIANT
@given(campaigns(), st.data())
def test_fewer_chips_are_a_prefix(campaign, data):
    cfg, params, coupling, squeeze = campaign
    n = data.draw(st.integers(2, cfg.n_chips))
    full = run(*campaign)
    part = run(replace(cfg, n_chips=n), params, coupling, squeeze)
    assert_cells_equal(full, part, cfg.voltages, chips=slice(0, n))


@INVARIANT
@given(campaigns())
def test_threads_and_chunk_rows_change_nothing(campaign):
    cfg = campaign[0]
    base = run(*campaign)
    for rows in (1, 7, 64, 128, max(cfg.samples_per_chip, cfg.enroll_repetitions) + 1):
        with mock.patch.object(chipsim, "CHUNK_ROWS", rows):
            assert_cells_equal(base, run(*campaign), cfg.voltages)


@INVARIANT
@given(campaigns(), st.integers(1, 7))
def test_campaign_never_writes_a_chunks_normals(campaign, rows):
    """Enrollment and sample chunks pass the same normals to sample_rows at
    every voltage; marked read-only, they sample the same grid."""
    cfg, real = campaign[0], chipsim.sample_rows

    def read_only(unit, v, g1, g2, extension):
        g1.flags.writeable = g2.flags.writeable = False  # any later write raises
        return real(unit, v, g1, g2, extension)

    base = run(*campaign)
    with mock.patch.object(chipsim, "CHUNK_ROWS", rows), \
            mock.patch.object(chipsim, "sample_rows", read_only):
        assert_cells_equal(base, run(*campaign), cfg.voltages)


def test_ro2_jitter_is_common_across_voltages():
    # RO1 and RO2 of each unit speed up differently with the voltage, so
    # T2/T1 moves across the sweep; RO2's normalised jitter for each
    # sample must not.  Enrollment repetitions are evaluated at V0 alone,
    # before the samples.
    voltages = (1.2, 1.25, 1.3, 1.35, 1.4)
    cfg = chipsim.CampaignConfig(n_chips=2, pairs_per_id=1, samples_per_chip=300,
                                 enroll_repetitions=5, voltages=voltages, master_seed=3)
    # RO2 alone has jitter 0.002, which tells its calls from RO1's
    units = [PufUnit(ro.RoInstance(t1, g1, 0.001), ro.RoInstance(t2, g2, 0.002))
             for t1, g1, t2, g2 in ((1.07e-9, 0.2, 1.0e-9, 0.8), (0.91e-9, 0.9, 1.03e-9, 0.1))]
    calls, real = [], ro.jittered_half_periods  # RO2's (period, one row of normals)

    def record(period, sigma, gaussians):
        if sigma == 0.002:
            calls.extend((period, row) for row in np.reshape(gaussians, (-1, 31)))
        return real(period, sigma, gaussians)

    with mock.patch.object(ro, "jittered_half_periods", record):
        HandMadeCampaign(cfg, ro.RoParams(), chip_units=lambda c: (units[c],)).collect()
    for unit in units:
        draws = {v: np.array([row for period, row in calls
                              if period == ro.period_at_voltage(unit.ro2, v, V0)])
                 for v in voltages}
        assert draws[V0].shape == (cfg.enroll_repetitions + cfg.samples_per_chip, 31)
        for v in set(voltages) - {V0}:
            assert np.array_equal(draws[v], draws[V0][cfg.enroll_repetitions:]), v


def oracle_row(unit, v, g1, g2, extension):
    """One row's word, by the per-row rule of the stream layout: the
    parity of the toggle counts oracles.toggle_counts rebuilds."""
    return toggle_counts(unit, v, g1, g2, extension) & 1


class _CountingRng:
    """A generator that counts its standard_normal calls."""

    def __init__(self, rng):
        self.rng, self.calls = rng, 0

    def standard_normal(self, size):
        self.calls += 1
        return self.rng.standard_normal(size)


def test_short_rows_extending_by_different_rounds_match_the_row_oracle():
    # T2/T1 = 2.79: RO2's last rising edge falls near RO1 boundary 87,
    # which jitter puts on either side of B1 + 32, so rows that extend
    # together need 2 or 3 rounds of 16 normals.
    b1w, n2 = normal_widths(16)
    unit = make_unit(1e-9, 2.79e-9, jitter=0.05)
    rng = np.random.default_rng(4)
    g1, g2 = rng.standard_normal((200, b1w)), rng.standard_normal((200, n2))
    got = chipsim.sample_rows(unit, 1.3, g1, g2, lambda i: keyed.keyed_rng(9, i))
    streams = [_CountingRng(keyed.keyed_rng(9, i)) for i in range(200)]
    want = [oracle_row(unit, 1.3, g1[i], g2[i], streams[i]) for i in range(200)]
    assert len({s.calls for s in streams}) > 1  # rows extend by different rounds
    assert np.array_equal(got, want)


def test_chunks_extend_rows_from_their_own_keys():
    """With one row per chunk, every extended enrollment repetition and
    sample still draws from the stream keyed by its own index."""
    seed, reps, n_samples = 5, 4, 6
    cfg = chipsim.CampaignConfig(n_chips=2, pairs_per_id=1, word_length=16,
                                 samples_per_chip=n_samples, enroll_repetitions=reps,
                                 voltages=(1.3,), master_seed=seed)
    # T2 = 6 T1: every row runs short of its B1 RO1 boundaries and extends.
    unit = make_unit(0.2e-9, 1.2e-9, jitter=0.004)
    keys, real = [], chipsim.keyed_rng

    def recording(*key):
        keys.append(key)
        return real(*key)

    with mock.patch.object(chipsim, "CHUNK_ROWS", 1), \
            mock.patch.object(chipsim, "keyed_rng", recording):
        HandMadeCampaign(cfg, ro.RoParams(), chip_units=lambda c: (unit,)).collect()
    for tag, n in ((keyed.TAG_ENROLL_EXTEND, reps), (keyed.TAG_EXTEND, n_samples)):
        assert sorted(k[2:] for k in keys if k[:2] == (seed, tag)) == \
            [(c, 0, i) for c in range(2) for i in range(n)], tag


def test_stream_layout_rebuilt_row_by_row():
    # Unit 0 has T2 = 6 T1: every row needs more RO1 boundaries than its
    # B1 normals give, and extends from (chip, unit, sample).
    seed, voltages, n_samples, reps = 11, (1.25, 1.3), 300, 7
    cfg = chipsim.CampaignConfig(n_chips=2, pairs_per_id=2, word_length=16,
                                 samples_per_chip=n_samples, enroll_repetitions=reps,
                                 voltages=voltages, master_seed=seed)
    coupling = ro.Coupling("capacitive", 0.3)
    chips = [(make_unit(0.2e-9 + 0.01e-9 * c, 1.2e-9, jitter=0.004),
              make_unit(1.1e-9, 1.0e-9 - 0.02e-9 * c, coupling, jitter=0.004))
             for c in range(2)]
    ds = HandMadeCampaign(cfg, ro.RoParams(), chip_units=chips.__getitem__).collect()
    b1w, n2 = normal_widths(16)
    assert b1w * 0.21e-9 < n2 * 1.19e-9  # unit 0: B1 half-periods of RO1 fall short
    grid = {v: held(ds, v) for v in voltages}
    for c, units in enumerate(chips):
        for u, unit in enumerate(units):
            g1 = keyed.keyed_rng(seed, keyed.TAG_RO1, c, u).standard_normal((n_samples, b1w))
            g2 = keyed.keyed_rng(seed, keyed.TAG_RO2, c, u).standard_normal((n_samples, n2))
            enroll = keyed.keyed_rng(seed, keyed.TAG_ENROLL, c, u).standard_normal((reps, b1w + n2))
            for v in voltages:
                want = [oracle_row(unit, v, g1[t], g2[t],
                                   keyed.keyed_rng(seed, keyed.TAG_EXTEND, c, u, t))
                        for t in range(n_samples)]
                got = unpack_rows(grid[v][1][c], 32)[:, u * 16:(u + 1) * 16]
                assert np.array_equal(got, want), (c, u, v)
            # The reference: the modal word of the repetitions at V0.
            words = [tuple(oracle_row(unit, V0, row[:b1w], row[b1w:],
                                      keyed.keyed_rng(seed, keyed.TAG_ENROLL_EXTEND, c, u, r)))
                     for r, row in enumerate(enroll)]
            counts = Counter(words).most_common()
            leaders = [w for w, n in counts if n == counts[0][1]]
            want = leaders[0] if len(leaders) == 1 else tuple(
                int(2 * ones > reps) for ones in np.sum(words, axis=0))
            assert tuple(grid[V0][0][c, u * 16:(u + 1) * 16]) == want, (c, u)
