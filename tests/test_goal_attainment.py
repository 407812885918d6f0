"""Goal-attainment and scalarization tests (repro.optimize)."""

import numpy as np
import pytest

from repro.optimize.goal_attainment import (
    MultiObjectiveProblem,
    goal_attainment_improved,
    goal_attainment_standard,
)
from repro.optimize.scalarization import weighted_sum


def convex_biobjective():
    """f1 = |x - (1,0)|^2, f2 = |x + (1,0)|^2: Pareto set is the segment
    x in [-1, 1] x {0}."""
    return MultiObjectiveProblem(
        objectives=lambda x: np.array([
            (x[0] - 1) ** 2 + x[1] ** 2,
            (x[0] + 1) ** 2 + x[1] ** 2,
        ]),
        n_objectives=2,
        lower=np.array([-3.0, -3.0]),
        upper=np.array([3.0, 3.0]),
    )


def constrained_problem():
    """Same objectives but x0 >= 0.25 required."""
    base = convex_biobjective()
    return MultiObjectiveProblem(
        objectives=base.objectives,
        n_objectives=2,
        lower=base.lower,
        upper=base.upper,
        constraints=lambda x: np.array([0.25 - x[0]]),
    )


def nonconvex_biobjective():
    """A classic nonconvex front (Fonseca-Fleming style, 1-D)."""

    def objectives(x):
        t = x[0]
        f1 = 1 - np.exp(-((t - 1) ** 2))
        f2 = 1 - np.exp(-((t + 1) ** 2))
        return np.array([f1, f2])

    return MultiObjectiveProblem(
        objectives=objectives,
        n_objectives=2,
        lower=np.array([-2.0]),
        upper=np.array([2.0]),
    )


class TestProblemValidation:
    def test_bounds_must_match(self):
        with pytest.raises(ValueError):
            MultiObjectiveProblem(lambda x: x, 2, np.zeros(2), np.ones(3))

    def test_needs_two_objectives(self):
        with pytest.raises(ValueError):
            MultiObjectiveProblem(lambda x: x, 1, np.zeros(2), np.ones(2))

    def test_default_objective_names(self):
        problem = convex_biobjective()
        assert problem.objective_names == ("f1", "f2")


class TestStandardGoalAttainment:
    def test_balanced_goals_yield_symmetric_point(self):
        problem = convex_biobjective()
        result = goal_attainment_standard(problem, goals=[1.0, 1.0])
        # The symmetric Pareto point is x = (0, 0), f = (1, 1), gamma = 0.
        np.testing.assert_allclose(result.x, 0.0, atol=1e-4)
        assert result.gamma == pytest.approx(0.0, abs=1e-6)

    def test_generous_goals_overattained(self):
        problem = convex_biobjective()
        result = goal_attainment_standard(problem, goals=[3.0, 3.0])
        assert result.gamma < 0.0  # both goals exceeded

    def test_goal_shape_checked(self):
        with pytest.raises(ValueError):
            goal_attainment_standard(convex_biobjective(), goals=[1.0])

    def test_weights_must_be_positive(self):
        with pytest.raises(ValueError):
            goal_attainment_standard(convex_biobjective(), goals=[1.0, 1.0],
                                     weights=[1.0, -1.0])

    def test_constraints_respected(self):
        problem = constrained_problem()
        result = goal_attainment_standard(problem, goals=[1.0, 1.0])
        assert result.x[0] >= 0.25 - 1e-6
        assert result.constraint_violation <= 1e-6

    def test_nfev_counted(self):
        problem = convex_biobjective()
        result = goal_attainment_standard(problem, goals=[1.0, 1.0])
        assert result.nfev > 0


class TestImprovedGoalAttainment:
    def test_reaches_pareto_front(self):
        problem = convex_biobjective()
        result = goal_attainment_improved(problem, goals=[1.0, 1.0],
                                          seed=0)
        # On the Pareto set: x1 = 0 and x0 in [-1, 1].
        assert abs(result.x[1]) < 1e-3
        assert -1.001 <= result.x[0] <= 1.001

    def test_tightening_pushes_past_timid_goals(self):
        # Goals far inside the attainable region: the standard method
        # stops at gamma << 0 but a point dominated by the front edge;
        # the improved method's tightening keeps improving objectives.
        problem = convex_biobjective()
        improved = goal_attainment_improved(problem, goals=[4.0, 4.0],
                                            seed=1, tighten_rounds=3)
        # Must end on the Pareto front (f1 + f2 >= 2, equality on front
        # only at x=(0,0); general check: point not dominated by the
        # symmetric solution with margin).
        f_sum = improved.objectives.sum()
        assert f_sum <= 2.3  # near the front, not hovering at goals

    def test_constraints_respected(self):
        problem = constrained_problem()
        result = goal_attainment_improved(problem, goals=[1.0, 1.0],
                                          seed=0)
        assert result.constraint_violation <= 1e-6
        assert result.x[0] >= 0.25 - 1e-6

    def test_handles_nonconvex_front(self):
        problem = nonconvex_biobjective()
        result = goal_attainment_improved(problem, goals=[0.6, 0.6],
                                          seed=0)
        # Balanced goals land mid-front (t ~ 0), which the weighted sum
        # cannot reach on a nonconvex front.
        assert abs(result.x[0]) < 0.3

    def test_goal_shape_checked(self):
        with pytest.raises(ValueError):
            goal_attainment_improved(convex_biobjective(), goals=[1.0])


class TestScalarizationBaselines:
    def test_weighted_sum_on_convex_problem(self):
        problem = convex_biobjective()
        result = weighted_sum(problem, [1.0, 1.0], seed=0)
        np.testing.assert_allclose(result.x, 0.0, atol=1e-4)
        assert result.success

    def test_weighted_sum_misses_nonconvex_middle(self):
        # On the nonconvex front, any weight vector lands near an
        # extreme, never mid-front.
        problem = nonconvex_biobjective()
        result = weighted_sum(problem, [1.0, 1.0], seed=0, n_starts=6)
        assert abs(result.x[0]) > 0.6

    def test_weighted_sum_validation(self):
        with pytest.raises(ValueError):
            weighted_sum(convex_biobjective(), [1.0])
        with pytest.raises(ValueError):
            weighted_sum(convex_biobjective(), [1.0, -2.0])
