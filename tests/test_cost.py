import dataclasses

import pytest

from ropuf import cost
from ropuf.errors import ConfigurationError


class TestWaveformCost:
    def test_single_word_case(self):
        p = cost.CostParams(bits_required=16)
        # one RO pair and 16 FFs: 2*20 + 16*30
        assert cost.waveform_puf_cost(p) == (520, 1)

    def test_wider_words_fewer_cycles(self):
        p = cost.CostParams(bits_per_word=32)
        assert cost.waveform_puf_cost(p)[1] == 4

    def test_free_ffs_leave_ro_cost(self):
        p = cost.CostParams(transistors_per_ff=0)
        assert cost.waveform_puf_cost(p)[0] == 80

    def test_exact_past_the_float_mantissa(self):
        # 2**53 + 1 bits: a float ceiling rounds to 2**53 and loses a pair and a cycle.
        p = cost.CostParams(bits_required=2 ** 53 + 1)
        assert cost.waveform_puf_cost(p) == (140737488355329000, 562949953421313)


class TestConventionalCost:
    def test_component_breakdown(self):
        # 700 ROs + 1260 MUX + 960 counter FFs + 320 adders
        p = cost.CostParams()
        total, _ = cost.conventional_puf_cost(p)
        assert total == 700 + 1260 + 960 + 320

    def test_smaller_counter_fewer_cycles(self):
        p = cost.CostParams(counter_bits=8)
        assert cost.conventional_puf_cost(p)[1] == 1024


class TestInvariants:
    def test_cycle_ratio_is_1_to_256(self):
        """At the defaults, which give the comparison table's rows."""
        p = cost.CostParams()
        wave, conv = cost.waveform_puf_cost(p), cost.conventional_puf_cost(p)
        assert (wave, conv) == ((2000, 8), (3240, 2048))
        assert wave[1] * 256 == conv[1]

    @pytest.mark.parametrize("name", [
        "transistors_per_ro", "transistors_per_ff", "transistors_per_mux4",
        "transistors_per_full_adder", "bits_required", "counter_bits"])
    def test_costs_monotone_in_each_count(self, name):
        base = cost.CostParams()
        bumped = dataclasses.replace(base, **{name: getattr(base, name) + 1})
        for fn in (cost.waveform_puf_cost, cost.conventional_puf_cost):
            t0, c0 = fn(base)
            t1, c1 = fn(bumped)
            assert t1 >= t0 and c1 >= c0, name

    def test_structural_counts_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            cost.waveform_puf_cost(cost.CostParams(bits_required=0))
        with pytest.raises(ConfigurationError):
            cost.conventional_puf_cost(cost.CostParams(counter_bits=0))

    def test_unit_costs_may_be_zero_but_not_negative(self):
        cost.waveform_puf_cost(cost.CostParams(transistors_per_ro=0))
        with pytest.raises(ConfigurationError):
            cost.waveform_puf_cost(cost.CostParams(transistors_per_ro=-1))
