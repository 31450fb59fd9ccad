"""Unit tests for the Table 1 database and the compositional cost model."""

import pytest

from repro.energy.cost_model import (
    enumerate_multiplier_modules,
    recursive_multiplier_cost,
    reduction_factors,
    ripple_carry_adder_cost,
)
from repro.energy.synthesis import (
    ADDER_COSTS,
    MULTIPLIER_COSTS,
    ModuleCost,
    adder_cost,
    adders_by_energy,
    multiplier_cost,
    multipliers_by_energy,
)


class TestTable1Database:
    def test_table1_adder_values(self):
        accurate = adder_cost("Accurate")
        assert accurate.area_um2 == pytest.approx(10.08)
        assert accurate.delay_ns == pytest.approx(0.18)
        assert accurate.power_uw == pytest.approx(2.27)
        assert accurate.energy_fj == pytest.approx(0.409)

    def test_approx_add5_is_free(self):
        add5 = adder_cost("ApproxAdd5")
        assert add5.area_um2 == 0.0
        assert add5.energy_fj == 0.0

    def test_table1_multiplier_values(self):
        assert multiplier_cost("AccMult").energy_fj == pytest.approx(0.288)
        assert multiplier_cost("AppMultV1").energy_fj == pytest.approx(0.167)
        assert multiplier_cost("AppMultV2").energy_fj == pytest.approx(0.137)

    def test_energy_ordering_is_monotone(self):
        adders = adders_by_energy()
        energies = [adder_cost(name).energy_fj for name in adders]
        assert energies == sorted(energies, reverse=True)
        assert adders[0] == "Accurate"
        assert adders[-1] == "ApproxAdd5"

    def test_multiplier_ordering(self):
        assert multipliers_by_energy() == ["AccMult", "AppMultV1", "AppMultV2"]

    def test_case_insensitive_lookup_and_aliases(self):
        assert adder_cost("accadd") is adder_cost("Accurate")
        assert multiplier_cost("accurate") is multiplier_cost("AccMult")

    def test_unknown_module_raises(self):
        with pytest.raises(KeyError):
            adder_cost("ApproxAdd9")
        with pytest.raises(KeyError):
            multiplier_cost("MegaMult")

    def test_every_approximate_cell_cheaper_than_accurate(self):
        for name, cost in ADDER_COSTS.items():
            if name != "Accurate":
                assert cost.energy_fj < ADDER_COSTS["Accurate"].energy_fj
        for name, cost in MULTIPLIER_COSTS.items():
            if name != "AccMult":
                assert cost.energy_fj < MULTIPLIER_COSTS["AccMult"].energy_fj


class TestModuleCostAlgebra:
    def test_parallel_composition(self):
        a = ModuleCost(1.0, 0.2, 3.0, 4.0)
        b = ModuleCost(2.0, 0.5, 1.0, 1.0)
        combined = a + b
        assert combined.area_um2 == 3.0
        assert combined.delay_ns == 0.5  # max
        assert combined.energy_fj == 5.0

    def test_series_composition_accumulates_delay(self):
        a = ModuleCost(1.0, 0.2, 3.0, 4.0)
        chained = a.chained(a)
        assert chained.delay_ns == pytest.approx(0.4)

    def test_scaling(self):
        cost = ModuleCost(1.0, 0.2, 3.0, 4.0).scaled(10)
        assert cost.area_um2 == 10.0
        assert cost.delay_ns == 0.2

    def test_zero_is_identity(self):
        a = ModuleCost(1.0, 0.2, 3.0, 4.0)
        assert (a + ModuleCost.zero()).energy_fj == a.energy_fj


class TestRippleCarryAdderCost:
    def test_accurate_32_bit_adder(self):
        cost = ripple_carry_adder_cost(32, 0)
        assert cost.energy_fj == pytest.approx(32 * 0.409)
        assert cost.delay_ns == pytest.approx(32 * 0.18)

    def test_fully_approximated_add5_adder_is_free(self):
        cost = ripple_carry_adder_cost(32, 32, "ApproxAdd5")
        assert cost.energy_fj == 0.0
        assert cost.area_um2 == 0.0

    def test_partial_approximation_interpolates(self):
        cost = ripple_carry_adder_cost(32, 16, "ApproxAdd5")
        assert cost.energy_fj == pytest.approx(16 * 0.409)

    def test_lsbs_clamped_to_width(self):
        assert ripple_carry_adder_cost(8, 100, "ApproxAdd5").energy_fj == 0.0

    def test_monotone_in_lsbs(self):
        energies = [ripple_carry_adder_cost(32, k, "ApproxAdd3").energy_fj
                    for k in range(0, 33, 4)]
        assert energies == sorted(energies, reverse=True)

    def test_invalid_width(self):
        with pytest.raises(ValueError):
            ripple_carry_adder_cost(0, 0)


class TestRecursiveMultiplierCost:
    def test_module_enumeration_16x16(self):
        modules = enumerate_multiplier_modules(16)
        mults = [m for m in modules if m.kind == "mult2x2"]
        adders = [m for m in modules if m.kind == "full_adder"]
        assert len(mults) == 64
        assert len(adders) == 672  # 3*32 + 4*3*16 + 16*3*8

    def test_accurate_16x16_energy(self):
        cost = recursive_multiplier_cost(16, 0, "AccMult", "Accurate")
        expected = 64 * 0.288 + 672 * 0.409
        assert cost.energy_fj == pytest.approx(expected)

    def test_energy_monotone_in_approximated_lsbs(self):
        energies = [
            recursive_multiplier_cost(16, k, "AppMultV1", "ApproxAdd5").energy_fj
            for k in range(0, 33, 4)
        ]
        assert all(b <= a for a, b in zip(energies, energies[1:]))

    def test_full_approximation_with_free_cells_is_nearly_free(self):
        cost = recursive_multiplier_cost(16, 32, "AppMultV1", "ApproxAdd5")
        accurate = recursive_multiplier_cost(16, 0, "AccMult", "Accurate")
        assert cost.energy_fj < 0.1 * accurate.energy_fj

    def test_power_of_two_coefficient_is_free(self):
        assert recursive_multiplier_cost(16, 0, coefficient=4).energy_fj == 0.0
        assert recursive_multiplier_cost(16, 0, coefficient=0).energy_fj == 0.0
        assert recursive_multiplier_cost(16, 0, coefficient=-8).energy_fj == 0.0

    def test_small_coefficient_cheaper_than_generic(self):
        generic = recursive_multiplier_cost(16, 0, "AccMult", "Accurate")
        small = recursive_multiplier_cost(16, 0, "AccMult", "Accurate", coefficient=3)
        assert small.energy_fj < generic.energy_fj

    def test_dead_cone_elimination_requires_pass_through_adder(self):
        with_add5 = recursive_multiplier_cost(16, 16, "AppMultV1", "ApproxAdd5")
        with_add1 = recursive_multiplier_cost(16, 16, "AppMultV1", "ApproxAdd1")
        assert with_add5.energy_fj < with_add1.energy_fj

    def test_invalid_width(self):
        with pytest.raises(ValueError):
            enumerate_multiplier_modules(6)


class TestReductionFactors:
    def test_ratios(self):
        accurate = ModuleCost(10.0, 1.0, 10.0, 100.0)
        approximate = ModuleCost(5.0, 0.5, 2.0, 10.0)
        report = reduction_factors(accurate, approximate)
        assert report.area == pytest.approx(2.0)
        assert report.energy == pytest.approx(10.0)
        assert report.as_dict()["power"] == pytest.approx(5.0)

    def test_zero_approximate_cost_is_infinite_reduction(self):
        accurate = ModuleCost(10.0, 1.0, 10.0, 100.0)
        report = reduction_factors(accurate, ModuleCost.zero())
        assert report.energy == float("inf")
