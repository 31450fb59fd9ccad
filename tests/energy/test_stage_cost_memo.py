"""Signal-independent values are computed once per process.

The stage energy costs behind ``DesignPoint.energy_reduction()`` and the
quantised FIR coefficients depend only on the design, so they are memoised.
These tests pin that the memo returns exactly what the plain composition of
the cost model returns, that a warm pass pays nothing, and that the memo
stays bounded whatever LSB count a request carries.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.dsp.stages as stages_module
import repro.energy.stage_costs as stage_costs
from repro.core.configurations import (
    PAPER_CONFIGURATIONS,
    DesignPoint,
    StageApproximation,
)
from repro.core.design_space import ALL_ADDERS, ALL_MULTIPLIERS
from repro.dsp.fir import run_stage
from repro.dsp.fixed_point import quantize_coefficients
from repro.dsp.stages import STAGE_NAMES, pan_tompkins_stages, stage_by_name
from repro.energy.cost_model import (
    ModuleCost,
    recursive_multiplier_cost,
    ripple_carry_adder_cost,
)


def _plain_stage_energy(stage_name, lsbs, adder, multiplier, coefficient_aware):
    """One stage's energy composed from the cost model, with no stage memo."""
    definition = stage_by_name(stage_name)
    datapath_lsbs = definition.datapath_lsbs(lsbs, 32)
    adders = ModuleCost.zero()
    for _ in range(definition.n_adders):
        adders = adders + ripple_carry_adder_cost(32, datapath_lsbs, adder)
    multipliers = ModuleCost.zero()
    if definition.kind == "fir":
        coefficients = quantize_coefficients(
            definition.coefficients, definition.coefficient_frac_bits, 16
        )
        for coefficient in coefficients:
            multipliers = multipliers + recursive_multiplier_cost(
                16,
                datapath_lsbs,
                multiplier,
                adder,
                coefficient=int(coefficient) if coefficient_aware else None,
            )
    elif definition.kind == "squarer":
        multipliers = recursive_multiplier_cost(16, datapath_lsbs, multiplier, adder)
    return (adders + multipliers).energy_fj


def _plain_design_energy(design, coefficient_aware=True):
    total = 0.0
    for name in STAGE_NAMES:
        setting = design.setting_for(name)
        if setting is None or setting.lsbs == 0:
            total += _plain_stage_energy(name, 0, "Accurate", "AccMult",
                                         coefficient_aware)
        else:
            total += _plain_stage_energy(name, setting.lsbs, setting.adder,
                                         setting.multiplier, coefficient_aware)
    return total


def _plain_energy_reduction(design, coefficient_aware=True):
    accurate = sum(
        _plain_stage_energy(name, 0, "Accurate", "AccMult", coefficient_aware)
        for name in STAGE_NAMES
    )
    approximate = _plain_design_energy(design, coefficient_aware)
    if approximate <= 0.0:
        return float("inf")
    return accurate / approximate


def _clear_memos():
    stage_costs._datapath_stage_cost.cache_clear()
    stages_module._quantized_coefficients.cache_clear()


class TestBitIdentity:
    @pytest.mark.parametrize("coefficient_aware", [True, False])
    def test_fig12_designs(self, coefficient_aware):
        for design in PAPER_CONFIGURATIONS.values():
            # Twice: the first call may fill the memo, the second reads it.
            for _ in range(2):
                assert design.energy_fj(coefficient_aware) == _plain_design_energy(
                    design, coefficient_aware
                )
                assert design.energy_reduction(
                    coefficient_aware
                ) == _plain_energy_reduction(design, coefficient_aware)

    @pytest.mark.parametrize("stage", STAGE_NAMES)
    def test_single_stage_sweep_over_every_cell(self, stage):
        for adder in ALL_ADDERS:
            for multiplier in ALL_MULTIPLIERS:
                for lsbs in range(0, 21):
                    design = DesignPoint(
                        stages=(StageApproximation(stage, lsbs, adder, multiplier),)
                    )
                    assert design.energy_fj() == _plain_design_energy(design)
                    assert design.energy_reduction() == _plain_energy_reduction(
                        design
                    )


class TestWarmPassPaysNothing:
    def test_second_fig12_pass_makes_no_cost_model_or_quantisation_call(
        self, monkeypatch
    ):
        calls = {"multiplier": 0, "adder": 0, "quantise": 0}

        def counting(kind, function):
            def counted(*args, **kwargs):
                calls[kind] += 1
                return function(*args, **kwargs)

            return counted

        monkeypatch.setattr(
            stage_costs, "recursive_multiplier_cost",
            counting("multiplier", recursive_multiplier_cost),
        )
        monkeypatch.setattr(
            stage_costs, "ripple_carry_adder_cost",
            counting("adder", ripple_carry_adder_cost),
        )
        monkeypatch.setattr(
            stages_module, "quantize_coefficients",
            counting("quantise", quantize_coefficients),
        )
        _clear_memos()
        signal = np.arange(-32, 32, dtype=np.int64) * 97

        def one_pass():
            energies = [
                (design.energy_fj(), design.energy_reduction())
                for design in PAPER_CONFIGURATIONS.values()
            ]
            outputs = [run_stage(signal, stage) for stage in pan_tompkins_stages()]
            return energies, outputs

        first = one_pass()
        assert calls["multiplier"] > 0 and calls["adder"] > 0
        assert calls["quantise"] == 3  # one per FIR stage
        calls.update(multiplier=0, adder=0, quantise=0)
        second = one_pass()
        assert calls == {"multiplier": 0, "adder": 0, "quantise": 0}
        assert first[0] == second[0]
        for before, after in zip(first[1], second[1]):
            assert np.array_equal(before, after)


class TestBounded:
    def test_any_lsb_count_lands_on_33_entries_per_stage_and_cell_pair(self):
        _clear_memos()
        for lsbs in range(0, 1000):
            DesignPoint.from_lsbs(
                {name: lsbs for name in STAGE_NAMES}
            ).energy_reduction()
        # Five stages, two cell pairs (the default approximate pair and the
        # accurate one), datapath LSBs 0..32.
        entries = stage_costs._datapath_stage_cost.cache_info().currsize
        assert entries <= 5 * 2 * 33
        saturated = entries
        _clear_memos()
        for lsbs in range(0, 33):
            DesignPoint.from_lsbs(
                {name: lsbs for name in STAGE_NAMES}
            ).energy_reduction()
        # Every count past 32 output LSBs reuses an entry already made.
        assert stage_costs._datapath_stage_cost.cache_info().currsize == saturated


class TestQuantisedCoefficients:
    @pytest.mark.parametrize("stage", pan_tompkins_stages(), ids=lambda s: s.name)
    def test_one_read_only_array_per_definition_and_width(self, stage):
        coefficients = stage.quantized_coefficients()
        assert coefficients is stage.quantized_coefficients(16)
        assert not coefficients.flags.writeable
        with pytest.raises(ValueError):
            coefficients[...] = 0

    def test_values_are_the_plain_quantisation(self):
        for stage in pan_tompkins_stages():
            for width in (12, 16):
                got = stage.quantized_coefficients(width)
                if stage.kind != "fir":
                    assert got.size == 0
                    continue
                want = quantize_coefficients(
                    stage.coefficients, stage.coefficient_frac_bits, width
                )
                assert got.dtype == want.dtype
                assert np.array_equal(got, want)
