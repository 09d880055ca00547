"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
suite executes.  Campaign-scale checks use the default model parameters
and the default master seed.
"""
import itertools
import json
import time
from fractions import Fraction

import numpy as np
import pytest

from conftest import held, make_unit
from oracles import (closed_form_word, reliability_formula, uniformity_formula,
                     uniqueness_formula)
from ropuf import chipsim, cli, bch, config, metrics, ro, sampler

SEED = 20260809
T_SAMPLES = 5000
N_CHIPS = 10


def announce(n: int, ok: bool, description: str):
    print(f"\n[criterion {n:2d}] {'PASS' if ok else 'FAIL'}: {description}")
    assert ok, f"criterion {n}: {description}"


# --- shared expensive artifacts -----------------------------------------

@pytest.fixture(scope="module")
def sampling_grid():
    """>= 1e4 ratios in (0.5, 2.0) with their simulated words, plus exact
    rationals realized through integer-scaled periods."""
    rng = np.random.default_rng(31415)
    t0 = time.perf_counter()
    points = []
    for rho in rng.uniform(0.5, 2.0, 10_000):
        rho = float(rho)
        unit = make_unit(rho * 2.0 ** -30, 2.0 ** -30)
        points.append((Fraction(rho), list(sampler.sample_word(unit, 1.3, 0))))
    for i in range(1, 512):  # dyadic ratios k/2^9 inside (0.5, 2)
        rho = 0.5 + i / 512 * 1.5
        unit = make_unit(rho * 2.0 ** -30, 2.0 ** -30)
        points.append((Fraction(rho), list(sampler.sample_word(unit, 1.3, 0))))
    for p in range(2, 14):
        for q in range(2, 14):
            if 0.5 < p / q < 2.0:
                unit = make_unit(p * 2.0 ** -34, q * 2.0 ** -34)
                points.append((Fraction(p, q),
                               list(sampler.sample_word(unit, 1.3, 0))))
    elapsed = time.perf_counter() - t0
    return points, elapsed


@pytest.fixture(scope="module")
def default_campaigns():
    """Criterion-6 campaigns: 10 chips, 5000 samples, 32-bit IDs, default
    parameters; one uncoupled, one capacitively coupled."""
    params = ro.RoParams()
    cfg = chipsim.CampaignConfig(n_chips=N_CHIPS, samples_per_chip=T_SAMPLES,
                                 enroll_repetitions=99, master_seed=SEED)
    t0 = time.perf_counter()
    datasets = {}
    for label, coupling in (("none", ro.Coupling.none()),
                            ("capacitive",
                             ro.Coupling.capacitive(ro.DEFAULT_CAPACITIVE_STRENGTH))):
        chips = chipsim.build_population(cfg, params, coupling)
        datasets[label] = chipsim.run_campaign(chips, cfg, params, coupling)
    return datasets, cfg, time.perf_counter() - t0


def test_criterion_1_sampling_oracle(sampling_grid):
    points, elapsed = sampling_grid
    t0 = time.perf_counter()
    mismatches = sum(bits != closed_form_word(16, rho) for rho, bits in points)
    elapsed += time.perf_counter() - t0
    ok = mismatches == 0 and len(points) >= 10_000 and elapsed < 5.0
    announce(1, ok, f"sample_word == floor((2k+1)/rho) mod 2 on {len(points)} "
                    f"grid points, 0.5<rho<2.0, exact ({mismatches} mismatches, "
                    f"{elapsed:.2f}s)")


def test_criterion_2_waveform_figure_behavior(sampling_grid):
    points, _ = sampling_grid
    w11 = sampler.sample_word(make_unit(1.1 * 2.0 ** -30, 2.0 ** -30), 1.3, 0)
    w12 = sampler.sample_word(make_unit(1.2 * 2.0 ** -30, 2.0 ** -30), 1.3, 0)
    law_violations = 0
    for rho, bits in points:
        if rho > 1:
            law_violations += bits[0] != 0
        elif rho < 1:
            law_violations += bits[0] != 1
    ok = not np.array_equal(w11, w12) and law_violations == 0
    announce(2, ok, f"ratios 1.1 vs 1.2 give distinct words; initial-bit law "
                    f"exact over the full grid ({law_violations} violations)")


def test_criterion_3_bch_exactness(rng):
    t0 = time.perf_counter()
    g = bch.generator_matrix()
    msgs = ((np.arange(1 << 16)[:, None] >> np.arange(15, -1, -1)) & 1).astype(np.uint8)
    weights = ((msgs @ g) % 2).sum(axis=1)
    min_weight = int(weights[1:].min())

    base = bch.encode(rng.integers(0, 2, 16, dtype=np.uint8))
    small_patterns = [(i,) for i in range(31)] + \
        list(itertools.combinations(range(31), 2))
    exact_small = all(np.array_equal(bch.decode(np.bitwise_xor(
        base, np.isin(np.arange(31), p).astype(np.uint8)))[0], base)
        for p in small_patterns)

    three_ok = 0
    trials = 10_000
    for _ in range(trials):
        cw = bch.encode(rng.integers(0, 2, 16, dtype=np.uint8))
        noisy = cw.copy()
        noisy[rng.choice(31, size=3, replace=False)] ^= 1
        fixed, nerr = bch.decode(noisy)
        three_ok += np.array_equal(fixed, cw) and nerr == 3
    elapsed = time.perf_counter() - t0
    ok = (min_weight == 7 and exact_small and len(small_patterns) == 496
          and three_ok == trials and elapsed < 30.0)
    announce(3, ok, f"min weight {min_weight} over all 65536 codewords; "
                    f"496/496 1-2 error patterns and {three_ok}/{trials} random "
                    f"3-error patterns decode exactly ({elapsed:.1f}s)")


def test_criterion_4_cost_table(capsys):
    rc = cli.main(["cost", "--json"])
    data = json.loads(capsys.readouterr().out)
    wave = data["waveform_ro_puf"]
    conv = data["conventional_ro_puf"]
    ok = (rc == 0
          and (wave["transistors"], wave["clock_cycles"]) == (2000, 8)
          and (conv["transistors"], conv["clock_cycles"]) == (3240, 2048))
    with capsys.disabled():
        announce(4, ok, f"cost defaults reproduce the comparison table: "
                        f"({wave['transistors']}, {wave['clock_cycles']}) and "
                        f"({conv['transistors']}, {conv['clock_cycles']})")


def test_criterion_5_metric_formula_oracle():
    rng = np.random.default_rng(2718)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 6))
        length = int(rng.integers(1, 9))
        t = int(rng.integers(1, 5))
        refs = [[int(b) for b in rng.integers(0, 2, length)] for _ in range(n)]
        samples = [[int(b) for b in rng.integers(0, 2, length)] for _ in range(t)]
        as_words = np.array(refs, dtype=np.uint8)
        sample_words = np.array(samples, dtype=np.uint8)
        for got, want in (
                (metrics.uniqueness(as_words, length), uniqueness_formula(refs, length)),
                (metrics.reliability(as_words[0], sample_words, length, t),
                 reliability_formula(refs[0], samples, length, t)),
                (metrics.uniformity(sample_words, length),
                 uniformity_formula(samples, length))):
            scale = max(abs(want), 1.0)
            worst = max(worst, abs(got - want) / scale)
    ok = worst <= 1e-12
    announce(5, ok, f"uniqueness/reliability/uniformity match the brute-force "
                    f"formulas on 100 random instances (worst rel err {worst:.2e})")


def test_criterion_6_coupling_contrast(default_campaigns):
    datasets, _, build_s = default_campaigns
    t0 = time.perf_counter()
    post_none = metrics.compute_report(datasets["none"], post_bch=True).intra
    post_cap = metrics.compute_report(datasets["capacitive"], post_bch=True).intra
    raw_none = metrics.compute_report(datasets["none"], post_bch=False).intra
    elapsed = build_s + (time.perf_counter() - t0)
    m_none, m_cap = post_none.mass_at(0), post_cap.mass_at(0)
    ok = (m_cap < m_none and m_none > 0.99
          and m_none > raw_none.mass_at(0) and elapsed < 120.0)
    announce(6, ok, f"post-correction intra-HD mass at 0: coupled {m_cap:.4f} < "
                    f"uncoupled {m_none:.4f} > 0.99 (raw uncoupled "
                    f"{raw_none.mass_at(0):.4f}; {elapsed:.0f}s)")


def test_criterion_7_inverter_loop_degeneracy():
    params = ro.RoParams()
    cfg = chipsim.CampaignConfig(n_chips=N_CHIPS, samples_per_chip=50,
                                 enroll_repetitions=25, master_seed=SEED)
    coupling = ro.Coupling.inverter_loop()
    chips = chipsim.build_population(cfg, params, coupling)
    ds = chipsim.run_campaign(chips, cfg, params, coupling)
    refs = held(ds, 1.3)[0]
    constant = all(np.array_equal(r, refs[0]) for r in refs)
    all_zero = not refs[0].any()
    inter = metrics.compute_report(ds).inter
    uniq = metrics.uniqueness(refs, cfg.id_length)
    ok = constant and all_zero and inter.mass_at(0) == 1.0 and uniq == 0.0
    announce(7, ok, f"inverter-loop coupling: every chip enrolls the constant "
                    f"all-zero word, inter-HD == 0, uniqueness {uniq:.2f}%")


def test_criterion_8_voltage_linearity():
    params = ro.RoParams()
    cfg = chipsim.CampaignConfig(n_chips=40, samples_per_chip=200,
                                 enroll_repetitions=49,
                                 voltages=(1.20, 1.25, 1.30, 1.35, 1.40),
                                 master_seed=SEED)
    chips = chipsim.build_population(cfg, params)
    ds = chipsim.run_campaign(chips, cfg, params)
    series = chipsim.voltage_sweep(ds)
    fit = chipsim.fit_sweep(series)
    by_level: dict[float, list[float]] = {}
    for dv, shift in series:
        by_level.setdefault(round(abs(dv), 9), []).append(shift)
    levels = sorted(by_level)
    monotone = all(max(by_level[a]) <= min(by_level[b]) + 1e-12
                   for a, b in itertools.combinations(levels, 2))

    flat_params = ro.RoParams(voltage_sensitivity_sigma=0.0)
    flat_cfg = chipsim.CampaignConfig(n_chips=4, samples_per_chip=40,
                                      enroll_repetitions=9,
                                      voltages=(1.20, 1.25, 1.30, 1.35, 1.40),
                                      master_seed=SEED)
    flat_chips = chipsim.build_population(flat_cfg, flat_params)
    flat_ds = chipsim.run_campaign(flat_chips, flat_cfg, flat_params)
    flat_zero = all(shift == 0.0 for _, shift in chipsim.voltage_sweep(flat_ds))

    ok = monotone and fit["r2"] > 0.9 and flat_zero
    announce(8, ok, f"mean HD shift non-decreasing in |dV| with R^2 "
                    f"{fit['r2']:.4f} > 0.9; exactly 0 at all voltages under "
                    f"zero sensitivity mismatch")


def test_criterion_9_uniqueness_band(default_campaigns):
    datasets, cfg, _ = default_campaigns
    ds = datasets["none"]
    refs = held(ds, 1.3)[0]
    uniq = metrics.uniqueness(refs, cfg.id_length)
    ok = 40.0 <= uniq <= 60.0
    announce(9, ok, f"uncoupled uniqueness {uniq:.2f}% within 50 +- 10 at "
                    f"N={cfg.n_chips}, L={cfg.id_length}")


def test_criterion_10_byte_determinism(tmp_path):
    run = config.RunConfig(campaign=chipsim.CampaignConfig(
        n_chips=N_CHIPS, samples_per_chip=T_SAMPLES,
        enroll_repetitions=99, master_seed=SEED))
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(config.to_dict(run), indent=2))
    digests = {}
    for label, threads in (("a", 1), ("b", 2)):
        out = tmp_path / label
        assert cli.main(["simulate", "--config", str(cfg_path),
                         "--out", str(out), "--threads", str(threads)]) == 0
        assert cli.main(["metrics", str(out / "dataset.csv"),
                         "--out", str(out)]) == 0
        digests[label] = {name: (out / name).read_bytes()
                          for name in ("dataset.csv", "dataset.json",
                                       "report.json", "histograms.csv")}
    same = {name: digests["a"][name] == digests["b"][name]
            for name in digests["a"]}
    ok = all(same.values())
    announce(10, ok, f"two full runs (threads 1 vs 2) byte-identical across "
                     f"{', '.join(digests['a'])}")
