"""Amplifier template and objective tests (repro.core)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.amplifier import AmplifierTemplate, DesignVariables
from repro.core.bands import (
    DESIGN_BAND,
    GNSS_BANDS,
    design_grid,
    stability_grid,
)
from repro.core.objectives import DesignSpec, LnaEvaluator, build_lna_problem


@pytest.fixture(scope="module")
def template(golden_device_module):
    return AmplifierTemplate(golden_device_module.small_signal)


@pytest.fixture(scope="module")
def golden_device_module():
    from repro.devices.reference import make_reference_device

    return make_reference_device()


class TestBands:
    def test_all_gnss_bands_inside_design_band(self):
        for band in GNSS_BANDS:
            assert band.f_low >= DESIGN_BAND.f_low
            assert band.f_high <= DESIGN_BAND.f_high

    def test_grids(self):
        grid = design_grid(11)
        assert grid.f_hz[0] == DESIGN_BAND.f_low
        assert grid.f_hz[-1] == DESIGN_BAND.f_high
        guard = stability_grid(11)
        assert guard.f_hz[0] < DESIGN_BAND.f_low
        assert guard.f_hz[-1] > DESIGN_BAND.f_high


class TestDesignVariables:
    def test_vector_roundtrip(self):
        variables = DesignVariables()
        rebuilt = DesignVariables.from_vector(variables.to_vector())
        assert rebuilt == variables

    @given(st.integers(min_value=0, max_value=1000))
    @settings(max_examples=30, deadline=None)
    def test_unit_roundtrip(self, seed):
        rng = np.random.default_rng(seed)
        unit = rng.random(len(DesignVariables.NAMES))
        variables = DesignVariables.from_unit(unit)
        np.testing.assert_allclose(variables.to_unit(), unit, atol=1e-12)

    def test_unit_clipped(self):
        variables = DesignVariables.from_unit(
            np.full(len(DesignVariables.NAMES), 2.0)
        )
        np.testing.assert_allclose(variables.to_vector(),
                                   DesignVariables.UPPER)

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            DesignVariables.from_vector(np.zeros(3))

    def test_replaced(self):
        variables = DesignVariables().replaced(vds=4.0)
        assert variables.vds == 4.0


class TestTemplateEvaluation:
    def test_default_design_performance(self, template):
        perf = template.evaluate(DesignVariables())
        assert perf.nf_max_db < 1.0          # low-noise
        assert perf.gt_min_db > 10.0         # real gain
        assert perf.mu_min > 1.0             # stabilized default
        assert 0.01 < perf.ids < 0.08
        summary = perf.summary()
        assert set(summary) == {
            "NFmax_dB", "GTmin_dB", "ripple_dB", "S11max_dB", "S22max_dB",
            "mu_min", "Ids_mA",
        }

    def test_more_degeneration_less_gain(self, template):
        light = template.evaluate(DesignVariables(l_deg=0.3e-9))
        heavy = template.evaluate(DesignVariables(l_deg=2.5e-9))
        assert heavy.gt_min_db < light.gt_min_db

    def test_higher_current_more_gain(self, template):
        low = template.evaluate(DesignVariables(vgs=0.42))
        high = template.evaluate(DesignVariables(vgs=0.60))
        assert high.ids > low.ids

    def test_solve_returns_noisy_twoport(self, template):
        noisy = template.solve(DesignVariables(), design_grid(5))
        assert noisy.network.s.shape == (5, 2, 2)
        assert np.all(noisy.noise_figure_db() > 0)

    def test_circuit_is_two_port(self, template):
        circuit = template.build_circuit(DesignVariables())
        assert len(circuit.ports) == 2


class TestObjectives:
    def test_problem_in_unit_box(self, template):
        problem = build_lna_problem(template)
        assert np.all(problem.lower == 0.0)
        assert np.all(problem.upper == 1.0)

    def test_objectives_and_constraints_consistent(self, template):
        evaluator = LnaEvaluator(template)
        problem = build_lna_problem(template, evaluator=evaluator)
        unit_x = DesignVariables().to_unit()
        (objectives,), (constraints,) = problem.evaluate(unit_x[None, :])
        perf = evaluator.performance(unit_x)
        assert objectives[0] == pytest.approx(perf.nf_max_db)
        assert objectives[1] == pytest.approx(-perf.gt_min_db)
        assert constraints.shape == (5,)
        # Default design satisfies the supply-current constraint.
        assert constraints[4] < 0

    def test_evaluator_caches_repeat_calls(self, template):
        evaluator = LnaEvaluator(template)
        problem = build_lna_problem(template, evaluator=evaluator)
        unit_x = DesignVariables().to_unit()[None, :]
        problem.evaluate(unit_x)
        solves_after_first = evaluator.n_solves
        problem.evaluate(unit_x)
        assert evaluator.n_solves == solves_after_first
        assert evaluator.cache_hits == 1

    def test_spec_fields(self):
        spec = DesignSpec()
        assert spec.mu_margin > 1.0
        assert spec.ids_max > 0
