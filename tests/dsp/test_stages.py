"""Unit tests for the Pan-Tompkins stage definitions."""

import numpy as np
import pytest

from repro.dsp.stages import (
    DEFAULT_SAMPLE_RATE_HZ,
    MWI_WINDOW_SAMPLES,
    PREPROCESSING_GAIN,
    STAGE_DERIVATIVE,
    STAGE_HPF,
    STAGE_LPF,
    STAGE_MWI,
    STAGE_NAMES,
    STAGE_SQUARER,
    StageDefinition,
    pan_tompkins_stages,
    stage_by_name,
    stage_operator_summary,
    total_group_delay_samples,
)


class TestStageInventory:
    def test_pipeline_has_five_stages_in_order(self):
        stages = pan_tompkins_stages()
        assert [s.name for s in stages] == list(STAGE_NAMES)

    def test_lpf_is_the_papers_11_tap_filter(self):
        assert STAGE_LPF.n_taps == 11
        assert STAGE_LPF.n_multipliers == 11
        assert STAGE_LPF.n_adders == 10
        assert STAGE_LPF.n_registers == 10

    def test_hpf_is_the_papers_32_tap_filter(self):
        assert STAGE_HPF.n_taps == 32
        assert STAGE_HPF.n_multipliers == 32
        assert STAGE_HPF.n_adders == 31

    def test_derivative_is_five_taps_with_small_coefficients(self):
        assert STAGE_DERIVATIVE.n_taps == 5
        quantised = STAGE_DERIVATIVE.quantized_coefficients()
        assert list(quantised) == [2, 1, 0, -1, -2]

    def test_squarer_is_a_single_multiplier(self):
        assert STAGE_SQUARER.n_multipliers == 1
        assert STAGE_SQUARER.n_adders == 0

    def test_mwi_is_adders_only(self):
        assert STAGE_MWI.n_multipliers == 0
        assert STAGE_MWI.n_adders == MWI_WINDOW_SAMPLES - 1
        assert STAGE_MWI.window == 30  # 150 ms at 200 Hz

    def test_operator_summary_matches_definitions(self):
        summary = {row["stage"]: row for row in stage_operator_summary()}
        assert summary["low_pass"]["multipliers"] == 11
        assert summary["high_pass"]["adders"] == 31
        assert summary["moving_window_integral"]["multipliers"] == 0


class TestFilterDesigns:
    def test_lpf_passes_dc_and_attenuates_50hz(self):
        coefficients = np.asarray(STAGE_LPF.coefficients)
        freqs = np.fft.rfftfreq(2048, d=1 / 200.0)
        response = np.abs(np.fft.rfft(coefficients, 2048))
        dc_gain = response[0]
        mains_gain = response[np.argmin(np.abs(freqs - 50.0))]
        assert mains_gain < 0.2 * dc_gain

    def test_hpf_attenuates_baseline_wander_and_passes_qrs_band(self):
        coefficients = np.asarray(STAGE_HPF.coefficients)
        freqs = np.fft.rfftfreq(4096, d=1 / 200.0)
        response = np.abs(np.fft.rfft(coefficients, 4096))
        wander_gain = response[np.argmin(np.abs(freqs - 0.3))]
        qrs_gain = response[np.argmin(np.abs(freqs - 10.0))]
        # A 32-tap FIR cannot be razor sharp at 5 Hz; a 2.5x contrast between
        # the QRS band and the respiration band is what the design achieves.
        assert wander_gain < 0.4 * qrs_gain

    def test_literal_coefficients_equal_the_scipy_window_designs(self):
        # The two pre-processing filters are written out as float literals so
        # that importing the package does not load scipy.signal; firwin stays
        # their specification, element for element.
        from scipy.signal import firwin

        rate = DEFAULT_SAMPLE_RATE_HZ
        low_pass = firwin(11, 12.0, fs=rate) * PREPROCESSING_GAIN
        high_pass = firwin(32, [5.0, 45.0], fs=rate, pass_zero=False)
        high_pass = high_pass * PREPROCESSING_GAIN
        assert STAGE_LPF.coefficients == tuple(float(c) for c in low_pass)
        assert STAGE_HPF.coefficients == tuple(float(c) for c in high_pass)

    def test_derivative_coefficients_are_antisymmetric(self):
        coefficients = np.asarray(STAGE_DERIVATIVE.coefficients)
        np.testing.assert_allclose(coefficients, -coefficients[::-1])

    def test_quantised_coefficients_fit_in_16_bits(self):
        for stage in pan_tompkins_stages():
            quantised = stage.quantized_coefficients()
            if quantised.size:
                assert quantised.max() <= 32767
                assert quantised.min() >= -32768


class TestDatapathLsbs:
    def test_zero_output_lsbs_means_zero_datapath_lsbs(self):
        assert STAGE_LPF.datapath_lsbs(0) == 0

    def test_output_shift_added(self):
        assert STAGE_LPF.datapath_lsbs(4) == 4 + STAGE_LPF.output_shift

    def test_clamped_to_adder_width(self):
        assert STAGE_LPF.datapath_lsbs(100) == 32


class TestLookupAndDelay:
    def test_stage_by_name_accepts_aliases(self):
        assert stage_by_name("lpf") is STAGE_LPF
        assert stage_by_name("HPF") is STAGE_HPF
        assert stage_by_name("mwi") is STAGE_MWI
        assert stage_by_name("swi") is STAGE_MWI

    def test_unknown_stage_raises(self):
        with pytest.raises(KeyError):
            stage_by_name("band_stop")

    def test_group_delay_is_positive_and_cumulative(self):
        total = total_group_delay_samples()
        up_to_hpf = total_group_delay_samples("hpf")
        assert 0 < up_to_hpf < total

    def test_max_approx_lsbs_follow_the_paper(self):
        assert STAGE_DERIVATIVE.max_approx_lsbs == 4
        assert STAGE_SQUARER.max_approx_lsbs == 8
        assert STAGE_MWI.max_approx_lsbs == 16


class TestValidation:
    def test_fir_without_coefficients_rejected(self):
        with pytest.raises(ValueError):
            StageDefinition(name="bad", kind="fir")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            StageDefinition(name="bad", kind="iir", coefficients=(1.0,))

    def test_mwi_needs_window(self):
        with pytest.raises(ValueError):
            StageDefinition(name="bad", kind="mwi", window=1)
