"""Integration tests of the design flow, measurement sim, and IM3 check."""

import numpy as np
import pytest

from repro.core.amplifier import AmplifierTemplate, DesignVariables
from repro.core.design import DesignFlow
from repro.core.evaluation import MeasurementSettings, simulate_measurement
from repro.core.intermod import two_tone_analysis
from repro.passives.catalog import E24
from repro.rf.frequency import FrequencyGrid


@pytest.fixture(scope="module")
def flow():
    from repro.devices.reference import make_reference_device

    return DesignFlow(make_reference_device().small_signal)


@pytest.fixture(scope="module")
def standard_result(flow):
    """One cheap standard goal-attainment solve shared by this module."""
    return flow.run_standard()


class TestDesignFlow:
    def test_standard_run_feasible(self, flow, standard_result):
        assert standard_result.constraint_violation <= 1e-6
        assert standard_result.objectives[0] < 1.0        # NFmax < 1 dB
        assert -standard_result.objectives[1] > 12.0      # GTmin > 12 dB

    def test_weighted_sum_baseline_ends_infeasible(self, flow):
        # E5's claim: a weighted sum of NF and GT has no handle on the
        # hard constraints, so at the default weights it settles far
        # outside the spec (violation ~3.1 on this problem).
        result = flow.run_weighted_sum()
        assert result.constraint_violation > 1.0

    def test_finalize_snaps_to_catalogue(self, flow, standard_result):
        final = flow.finalize(standard_result)
        for value in (final.snapped.l_in, final.snapped.l_deg,
                      final.snapped.c_in, final.snapped.c_out,
                      final.snapped.l_choke, final.snapped.c_sh):
            mantissa = value / 10 ** np.floor(np.log10(value))
            distances = np.abs(np.log(np.array(E24) / mantissa))
            distances = np.minimum(
                distances,
                np.abs(np.log(np.array(E24) * 10 / mantissa)),
            )
            assert distances.min() < 1e-9

    def test_snapped_design_still_works(self, flow, standard_result):
        final = flow.finalize(standard_result)
        snapped = final.snapped_performance
        assert snapped.nf_max_db < 1.2
        assert snapped.gt_min_db > 10.0
        assert snapped.mu_min > 1.0   # mu-margin headroom survives snapping

    def test_per_band_report_covers_all_bands(self, flow, standard_result):
        from repro.core.bands import GNSS_BANDS

        final = flow.finalize(standard_result)
        assert set(final.per_band) == {band.label for band in GNSS_BANDS}
        for values in final.per_band.values():
            assert values["NF_dB"] < 1.2
            assert values["GT_dB"] > 10.0

    def test_summary_rows_complete(self, flow, standard_result):
        final = flow.finalize(standard_result)
        labels = [label for label, __ in final.summary_rows()]
        assert "Vgs [V]" in labels
        assert "Rstab [ohm]" in labels


class TestMeasurementSimulation:
    def test_measured_tracks_designed(self, flow):
        template = flow.template
        measurement = simulate_measurement(template, DesignVariables())
        assert measurement.worst_deviation_db(2, 1) < 0.6
        nf_delta = np.abs(
            measurement.nf_measured_db - measurement.nf_designed_db
        )
        assert np.max(nf_delta) < 0.4

    def test_reproducible_with_seed(self, flow):
        settings = MeasurementSettings(seed=3)
        a = simulate_measurement(flow.template, DesignVariables(),
                                 settings=settings)
        b = simulate_measurement(flow.template, DesignVariables(),
                                 settings=settings)
        np.testing.assert_array_equal(a.s_measured, b.s_measured)

    def test_nf_offset_systematic(self, flow):
        settings = MeasurementSettings(nf_jitter_db=0.0, nf_offset_db=0.2)
        measurement = simulate_measurement(flow.template, DesignVariables(),
                                           settings=settings)
        np.testing.assert_allclose(
            measurement.nf_measured_db - measurement.nf_designed_db, 0.2
        )

    def test_sparam_db_accessor(self, flow):
        measurement = simulate_measurement(flow.template, DesignVariables())
        s21_db = measurement.sparam_db(2, 1)
        assert s21_db.shape == measurement.frequency.f_hz.shape
        assert np.all(s21_db > 0)  # it is an amplifier


class TestIntermodulation:
    def test_im3_slope_is_three(self, flow):
        result = two_tone_analysis(flow.template, DesignVariables())
        assert result.im3_slope() == pytest.approx(3.0, abs=1e-6)

    def test_oip3_is_iip3_plus_gain(self, flow):
        result = two_tone_analysis(flow.template, DesignVariables())
        assert result.oip3_dbm == pytest.approx(
            result.iip3_dbm + result.gt_db, abs=1e-9
        )

    def test_fundamental_follows_gain(self, flow):
        result = two_tone_analysis(flow.template, DesignVariables())
        np.testing.assert_allclose(
            result.pout_fund_dbm, result.pin_dbm + result.gt_db, atol=1e-9
        )

    def test_intercept_above_sweep_extrapolation(self, flow):
        # The IM3 line extrapolated to the intercept must meet the
        # fundamental line at OIP3.
        result = two_tone_analysis(flow.template, DesignVariables())
        fund_fit = np.polyfit(result.pin_dbm, result.pout_fund_dbm, 1)
        im3_fit = np.polyfit(result.pin_dbm, result.pout_im3_dbm, 1)
        pin_cross = (im3_fit[1] - fund_fit[1]) / (fund_fit[0] - im3_fit[0])
        pout_cross = np.polyval(fund_fit, pin_cross)
        assert pout_cross == pytest.approx(result.oip3_dbm, abs=0.1)

    def test_oip3_reasonable_magnitude(self, flow):
        result = two_tone_analysis(flow.template, DesignVariables())
        assert 10.0 < result.oip3_dbm < 60.0

    def test_frequency_dependence(self, flow):
        low = two_tone_analysis(flow.template, DesignVariables(),
                                f_center=1.2e9)
        high = two_tone_analysis(flow.template, DesignVariables(),
                                 f_center=1.6e9)
        assert low.iip3_dbm != pytest.approx(high.iip3_dbm, abs=1e-6)
