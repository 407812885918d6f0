"""Monte-Carlo yield-analysis tests (repro.core.tolerance)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.amplifier import AmplifierTemplate, DesignVariables
from repro.core.bands import design_grid, stability_grid
from repro.core.engine import CompiledTemplate
from repro.core.tolerance import ToleranceSpec, monte_carlo_yield


@pytest.fixture(scope="module")
def template():
    from repro.devices.reference import make_reference_device

    return AmplifierTemplate(make_reference_device().small_signal)


@pytest.fixture(scope="module")
def fast_compiled(template):
    """One compiled engine shared across the batched-engine tests."""
    return CompiledTemplate(template, design_grid(5), stability_grid(6),
                            verify=False)


class TestToleranceSpec:
    def test_presets_ordered(self):
        assert ToleranceSpec.tight().inductor < ToleranceSpec().inductor
        assert ToleranceSpec().inductor < ToleranceSpec.loose().inductor

    def test_rejects_negative_by_name(self):
        with pytest.raises(ValueError, match="capacitor"):
            ToleranceSpec(capacitor=-0.01)
        with pytest.raises(ValueError, match="vds_volts"):
            ToleranceSpec(vds_volts=-0.1)

    def test_rejects_non_finite_by_name(self):
        with pytest.raises(ValueError, match="vgs_volts"):
            ToleranceSpec(vgs_volts=float("nan"))
        with pytest.raises(ValueError, match="inductor"):
            ToleranceSpec(inductor=float("inf"))

    def test_rejects_relative_half_width_of_one(self):
        with pytest.raises(ValueError, match="resistor"):
            ToleranceSpec(resistor=1.0)
        # Absolute (volt) fields are not bound by the < 1 rule.
        assert ToleranceSpec(vds_volts=1.5).vds_volts == 1.5


class TestMonteCarloYield:
    def test_zero_tolerance_gives_unit_yield(self, template):
        spec = ToleranceSpec(inductor=0.0, capacitor=0.0, resistor=0.0,
                             vgs_volts=0.0, vds_volts=0.0)
        # The default design has GTmin ~12 dB; judge it against a
        # shipping limit it meets so zero tolerance must pass always.
        result = monte_carlo_yield(template, DesignVariables(),
                                   tolerances=spec, n_trials=3, seed=0,
                                   gt_ship_limit_db=11.0)
        assert result.yield_fraction == 1.0
        np.testing.assert_allclose(result.nf_max_db,
                                   result.nf_max_db[0])

    def test_reproducible_with_seed(self, template):
        a = monte_carlo_yield(template, DesignVariables(), n_trials=5,
                              seed=4)
        b = monte_carlo_yield(template, DesignVariables(), n_trials=5,
                              seed=4)
        np.testing.assert_array_equal(a.nf_max_db, b.nf_max_db)

    def test_tight_tolerances_spread_less(self, template):
        tight = monte_carlo_yield(template, DesignVariables(),
                                  tolerances=ToleranceSpec.tight(),
                                  n_trials=12, seed=1,
                                  gt_ship_limit_db=11.0)
        loose = monte_carlo_yield(template, DesignVariables(),
                                  tolerances=ToleranceSpec.loose(),
                                  n_trials=12, seed=1,
                                  gt_ship_limit_db=11.0)
        assert np.std(tight.gt_min_db) < np.std(loose.gt_min_db)
        assert tight.yield_fraction >= loose.yield_fraction

    def test_failure_accounting_consistent(self, template):
        result = monte_carlo_yield(template, DesignVariables(),
                                   tolerances=ToleranceSpec.loose(),
                                   n_trials=10, seed=2,
                                   nf_ship_limit_db=0.1)  # force NF fails
        assert result.n_pass == 0
        assert result.failures["nf"] == 10

    def test_percentiles(self, template):
        result = monte_carlo_yield(template, DesignVariables(),
                                   n_trials=8, seed=3)
        p5 = result.percentile("gt_min_db", 5)
        p95 = result.percentile("gt_min_db", 95)
        assert p5 <= p95

    def test_percentile_rejects_unknown_quantity(self, template):
        result = monte_carlo_yield(template, DesignVariables(),
                                   n_trials=3, seed=0)
        with pytest.raises(ValueError,
                           match="valid quantities: nf_max_db"):
            result.percentile("s11_db", 50.0)


class TestBatchedEngine:
    def test_batched_matches_scalar_reference(self, template,
                                              fast_compiled):
        kwargs = dict(n_trials=16, seed=7, gt_ship_limit_db=11.0,
                      band_grid=design_grid(5),
                      guard_grid=stability_grid(6))
        batched = monte_carlo_yield(template, DesignVariables(),
                                    engine="batched",
                                    compiled=fast_compiled, **kwargs)
        scalar = monte_carlo_yield(template, DesignVariables(),
                                   engine="scalar", **kwargs)
        np.testing.assert_allclose(batched.nf_max_db, scalar.nf_max_db,
                                   atol=1e-9)
        np.testing.assert_allclose(batched.gt_min_db, scalar.gt_min_db,
                                   atol=1e-9)
        np.testing.assert_allclose(batched.mu_min, scalar.mu_min,
                                   atol=1e-9)
        assert batched.n_pass == scalar.n_pass
        assert batched.failures == scalar.failures

    def test_unknown_engine_rejected(self, template):
        with pytest.raises(ValueError, match="unknown engine"):
            monte_carlo_yield(template, DesignVariables(), n_trials=2,
                              engine="spice")

    @settings(max_examples=8, derandomize=True, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=40))
    def test_yield_monotone_in_tolerance_width(self, template,
                                               fast_compiled, seed):
        """Tight parts never ship worse than default, default never
        worse than loose — for any seed, same RNG stream throughout."""
        def run(tolerances):
            return monte_carlo_yield(
                template, DesignVariables(), tolerances=tolerances,
                n_trials=8, seed=seed, gt_ship_limit_db=11.0,
                compiled=fast_compiled).yield_fraction

        tight = run(ToleranceSpec.tight())
        default = run(ToleranceSpec())
        loose = run(ToleranceSpec.loose())
        assert tight >= default >= loose
