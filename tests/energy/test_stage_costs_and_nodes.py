"""Unit tests for per-stage costs, the sensor-node model and the A1 platform."""

import math

import pytest

from repro.energy.sensor_node import (
    BIO_SIGNAL_NODES,
    SensorNodeEnergy,
    lifetime_extension_factor,
    sensor_node,
    sensor_node_names,
)
from repro.energy.software_energy import (
    RASPBERRY_PI_3B_PLUS,
    SoftwarePlatform,
    software_energy_per_sample_j,
)
from repro.core.configurations import DesignPoint
from repro.dsp.stages import STAGE_NAMES
from repro.energy.stage_costs import (
    accurate_stage_cost,
    stage_cost,
    stage_reduction,
)
from repro.energy.synthesis import ADDER_COSTS, MULTIPLIER_COSTS


class TestStageCosts:
    def test_hpf_is_the_most_expensive_stage(self):
        energies = {
            name: accurate_stage_cost(name).energy_fj
            for name in ("low_pass", "high_pass", "derivative", "squarer",
                         "moving_window_integral")
        }
        assert energies["high_pass"] == max(energies.values())
        assert energies["high_pass"] > energies["low_pass"] > energies["squarer"]

    def test_derivative_is_cheap_thanks_to_power_of_two_coefficients(self):
        assert accurate_stage_cost("derivative").energy_fj < 0.1 * accurate_stage_cost(
            "low_pass"
        ).energy_fj

    def test_mwi_has_no_multiplier_cost(self):
        breakdown = accurate_stage_cost("mwi")
        assert breakdown.multipliers.energy_fj == 0.0
        assert breakdown.adders.energy_fj > 0.0

    def test_stage_cost_decreases_with_lsbs(self):
        energies = [stage_cost("lpf", k).energy_fj for k in (0, 4, 8, 12, 16)]
        assert all(b < a for a, b in zip(energies, energies[1:]))

    def test_stage_reduction_reports_four_metrics(self):
        reduction = stage_reduction("hpf", 8)
        assert set(reduction) == {"area", "delay", "power", "energy"}
        assert all(value >= 1.0 for value in reduction.values())

    def test_zero_lsbs_gives_unity_reduction(self):
        reduction = stage_reduction("lpf", 0, adder_cell="Accurate", mult_cell="AccMult")
        assert reduction["energy"] == pytest.approx(1.0)

    def test_stage_accepts_aliases(self):
        assert stage_cost("swi", 4).stage_name == "moving_window_integral"


class TestPipelineCosts:
    """Whole-pipeline energy is ``DesignPoint``'s: the sum of its stages."""

    def test_pipeline_cost_covers_all_stages(self):
        stages = [
            stage_cost(name, 8) if name == "low_pass" else accurate_stage_cost(name)
            for name in STAGE_NAMES
        ]
        assert len(stages) == 5
        assert DesignPoint.from_lsbs({"lpf": 8}).energy_fj() == sum(
            stage.energy_fj for stage in stages
        )

    def test_pipeline_reduction_of_accurate_design_is_one(self):
        assert DesignPoint.accurate().energy_reduction() == pytest.approx(1.0)

    def test_more_aggressive_designs_reduce_more(self):
        mild = DesignPoint.from_lsbs({"lpf": 4, "hpf": 4}).energy_reduction()
        aggressive = DesignPoint.from_lsbs(
            {"lpf": 12, "hpf": 12, "sqr": 8, "mwi": 16}
        ).energy_reduction()
        assert aggressive > mild > 1.0

    def test_b9_like_design_is_an_order_of_magnitude(self):
        reduction = DesignPoint.from_lsbs(
            {"lpf": 10, "hpf": 12, "der": 2, "sqr": 8, "mwi": 16}
        ).energy_reduction()
        assert 5.0 < reduction < 50.0

    def test_elementary_cost_table_contains_all_nine_modules(self):
        assert len(ADDER_COSTS) + len(MULTIPLIER_COSTS) == 9
        assert ADDER_COSTS["ApproxAdd5"].energy_fj == 0.0


class TestSensorNodes:
    def test_five_nodes_modelled(self):
        assert len(BIO_SIGNAL_NODES) == 5
        assert set(sensor_node_names()) == {
            "heart_rate", "oxygen_saturation", "temperature", "ecg", "eeg"
        }

    def test_sensing_energy_at_least_six_orders_below_total(self):
        for node in BIO_SIGNAL_NODES:
            assert node.sensing_to_total_orders >= 6.0

    def test_processing_share_in_papers_range(self):
        for node in BIO_SIGNAL_NODES:
            assert 0.4 <= node.processing_fraction <= 0.6

    def test_breakdown_sums_to_total(self):
        node = sensor_node("ecg")
        total = node.sensing_j_per_day + node.processing_j_per_day + node.communication_j_per_day
        assert total == pytest.approx(node.total_j_per_day)

    def test_processing_reduction_shrinks_total(self):
        node = sensor_node("ecg")
        reduced = node.with_processing_reduction(19.7)
        assert reduced.total_j_per_day < node.total_j_per_day
        assert reduced.total_j_per_day > node.total_j_per_day * (1 - node.processing_fraction)

    def test_lifetime_extension_factor(self):
        node = sensor_node("ecg")
        factor = lifetime_extension_factor(node, 19.7)
        # Processing is ~55% of the total, so eliminating most of it roughly
        # doubles the lifetime.
        assert 1.5 < factor < 2.5

    def test_unknown_node_raises(self):
        with pytest.raises(KeyError):
            sensor_node("blood_glucose")

    def test_validation(self):
        with pytest.raises(ValueError):
            SensorNodeEnergy("bad", sensing_j_per_day=1.0, processing_fraction=0.5,
                             total_j_per_day=0.5)
        with pytest.raises(ValueError):
            SensorNodeEnergy("bad", sensing_j_per_day=1e-6, processing_fraction=1.5,
                             total_j_per_day=10.0)


class TestSoftwarePlatform:
    def test_default_platform_energy(self):
        energy = software_energy_per_sample_j()
        assert energy == pytest.approx(1.9 * 0.02 / 200.0)

    def test_a1_is_about_seven_orders_above_a2(self):
        a1 = software_energy_per_sample_j()
        a2 = 12e3 * 1e-15  # accurate pipeline energy per sample (~12,000 fJ)
        orders = math.log10(a1 / a2)
        assert 6.0 < orders < 8.5

    def test_energy_per_day(self):
        per_day = RASPBERRY_PI_3B_PLUS.energy_per_day_j()
        assert per_day == pytest.approx(RASPBERRY_PI_3B_PLUS.energy_per_sample_j * 200 * 86400)

    def test_validation(self):
        with pytest.raises(ValueError):
            SoftwarePlatform("bad", active_power_w=-1.0, sample_rate_hz=200, cpu_utilisation=0.5)
        with pytest.raises(ValueError):
            SoftwarePlatform("bad", active_power_w=1.0, sample_rate_hz=200, cpu_utilisation=0.0)
