import numpy as np
import pytest
from hypothesis import given, strategies as st

from ropuf import ro
from ropuf.errors import ConfigurationError, ModelRangeError


class TestRealize:
    def test_zero_variance_gives_nominal(self):
        params = ro.RoParams(process_sigma=0.0, voltage_sensitivity_sigma=0.0)
        inst = ro.realize_ro(params, (5,))
        assert inst.period_at_ref == params.nominal_period
        assert inst.gamma == params.voltage_sensitivity_mean

    def test_same_seed_same_instance(self):
        params = ro.RoParams()
        assert ro.realize_ro(params, (99,)) == ro.realize_ro(params, (99,))

    def test_different_seeds_differ(self):
        params = ro.RoParams()
        assert ro.realize_ro(params, (1,)) != ro.realize_ro(params, (2,))

    def test_sample_stddev_matches_process_sigma(self):
        # 1e4 draws at sigma=0.03: sample std of T/nominal within 0.03 +- 0.003
        params = ro.RoParams(nominal_period=1e-9, process_sigma=0.03)
        ratios = [ro.realize_ro(params, (777, i)).period_at_ref / 1e-9
                  for i in range(10_000)]
        assert abs(np.std(ratios) - 0.03) < 0.003

    def test_invalid_params_rejected(self):
        with pytest.raises(ConfigurationError):
            ro.realize_ro(ro.RoParams(nominal_period=0.0), (0,))
        with pytest.raises(ConfigurationError):
            ro.realize_ro(ro.RoParams(process_sigma=-0.1), (0,))


class TestVoltage:
    def test_reference_point_unchanged(self):
        inst = ro.RoInstance(period_at_ref=1e-9, gamma=0.4, jitter_sigma=0.0)
        assert ro.period_at_voltage(inst, 1.3, 1.3) == 1e-9

    def test_direct_evaluation(self):
        inst = ro.RoInstance(period_at_ref=1.0e-9, gamma=0.1, jitter_sigma=0.0)
        assert ro.period_at_voltage(inst, 1.4, 1.3) == pytest.approx(0.99e-9, rel=1e-12)

    def test_zero_gamma_voltage_independent(self):
        inst = ro.RoInstance(period_at_ref=1e-9, gamma=0.0, jitter_sigma=0.0)
        for v in (0.9, 1.3, 1.7):
            assert ro.period_at_voltage(inst, v, 1.3) == 1e-9

    def test_affine_in_voltage(self):
        inst = ro.RoInstance(period_at_ref=1e-9, gamma=0.37, jitter_sigma=0.0)
        v = [1.25, 1.30, 1.35]  # equally spaced: differences must match
        t = [ro.period_at_voltage(inst, x, 1.3) for x in v]
        assert t[1] - t[0] == pytest.approx(t[2] - t[1], rel=1e-12)

    def test_out_of_range_raises(self):
        inst = ro.RoInstance(period_at_ref=1e-9, gamma=2.0, jitter_sigma=0.0)
        with pytest.raises(ModelRangeError):
            ro.period_at_voltage(inst, 1.9, 1.3)


class TestCoupling:
    def test_none_identity(self):
        assert ro.apply_coupling(1.1e-9, 0.9e-9, ro.Coupling()) == (1.1e-9, 0.9e-9, 0.0)

    def test_capacitive_zero_is_none(self):
        t1, t2, rj = ro.apply_coupling(1.1e-9, 0.9e-9, ro.Coupling("capacitive", 0.0))
        assert (t1, t2, rj) == (1.1e-9, 0.9e-9, 0.0)

    def test_capacitive_full_pulling(self):
        t1, t2, _ = ro.apply_coupling(1.1e-9, 0.9e-9, ro.Coupling("capacitive", 1.0))
        assert t1 == pytest.approx(1.0e-9, rel=1e-12)
        assert t2 == pytest.approx(1.0e-9, rel=1e-12)

    def test_inverter_loop_locks_periods(self):
        t1, t2, rj = ro.apply_coupling(1.3e-9, 0.7e-9, ro.Coupling("inverter_loop"))
        assert t1 == t2 == pytest.approx(1.0e-9, rel=1e-12)
        assert rj == 1.0
        assert t1 / t2 == 1.0

    @given(st.floats(0.5e-9, 2e-9), st.floats(0.5e-9, 2e-9), st.floats(0.0, 1.0))
    def test_sum_preserved(self, t1, t2, kappa):
        a, b, _ = ro.apply_coupling(t1, t2, ro.Coupling("capacitive", kappa))
        assert a + b == pytest.approx(t1 + t2, rel=1e-12)

    def test_bad_strength_rejected(self):
        for mode, strength in (("capacitive", 1.5), ("none", 0.7), ("inverter_loop", -5)):
            with pytest.raises(ConfigurationError, match="strength"):
                ro.Coupling(mode, strength)
        with pytest.raises(ConfigurationError):
            ro.Coupling("sideways")


class TestWaveform:
    def test_toggles_strictly_increasing(self):
        gaussians = np.random.default_rng(3).standard_normal(4096)
        halves = ro.jittered_half_periods(1e-9, 0.4, gaussians)
        assert np.all(np.diff(np.cumsum(halves)) > 0)

    def test_mean_half_period_preserved(self):
        gaussians = np.random.default_rng(7).standard_normal(200_000)
        halves = ro.jittered_half_periods(1e-9, 0.1, gaussians)
        assert np.mean(halves) == pytest.approx(0.5e-9, rel=2e-3)
