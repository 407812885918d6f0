"""Monte-Carlo yield-analysis tests (repro.core.tolerance)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.amplifier import AmplifierTemplate, DesignVariables
from repro.core.bands import design_grid, stability_grid
from repro.core.engine import CompiledTemplate
from repro.core.tolerance import ToleranceSpec, monte_carlo_yield


def _perturb(nominal: DesignVariables, tolerances: ToleranceSpec,
             rng: np.random.Generator) -> DesignVariables:
    """One trial's perturbed board, one variable at a time.

    Draws exactly one uniform variate per design variable in
    :data:`DesignVariables.NAMES` order — the contract
    :meth:`~repro.optimize.robust.CornerSet.monte_carlo` matches, so
    both perturb bit-identical boards from the same generator.
    """
    def rel(value, width):
        return value * (1.0 + width * (2.0 * rng.random() - 1.0))

    def absolute(value, width):
        return value + width * (2.0 * rng.random() - 1.0)

    return DesignVariables(
        vgs=absolute(nominal.vgs, tolerances.vgs_volts),
        vds=absolute(nominal.vds, tolerances.vds_volts),
        l_in=rel(nominal.l_in, tolerances.inductor),
        l_deg=rel(nominal.l_deg, tolerances.inductor),
        c_in=rel(nominal.c_in, tolerances.capacitor),
        c_out=rel(nominal.c_out, tolerances.capacitor),
        l_choke=rel(nominal.l_choke, tolerances.inductor),
        r_stab=rel(nominal.r_stab, tolerances.resistor),
        r_sh=rel(nominal.r_sh, tolerances.resistor),
        c_sh=rel(nominal.c_sh, tolerances.capacitor),
    )


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
        n_trials, gt_ship_limit_db = 16, 11.0
        batched = monte_carlo_yield(template, DesignVariables(),
                                    n_trials=n_trials, seed=7,
                                    gt_ship_limit_db=gt_ship_limit_db,
                                    compiled=fast_compiled)
        rng = np.random.default_rng(7)
        scalar = [template.evaluate(
            _perturb(DesignVariables(), ToleranceSpec(), rng),
            fast_compiled.band_grid, fast_compiled.guard_grid)
            for _ in range(n_trials)]
        for name in ("nf_max_db", "gt_min_db", "mu_min"):
            np.testing.assert_allclose(
                getattr(batched, name),
                [getattr(perf, name) for perf in scalar], atol=1e-9)
        fails = np.array([[perf.nf_max_db > 0.8,
                           perf.gt_min_db < gt_ship_limit_db,
                           perf.mu_min <= 1.0] for perf in scalar])
        assert batched.failures == dict(zip(
            ("nf", "gt", "stability"), fails.sum(axis=0).tolist()))
        assert batched.n_pass == int(np.sum(~fails.any(axis=1)))

    def test_unknown_engine_rejected(self, template):
        with pytest.raises(TypeError):
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
