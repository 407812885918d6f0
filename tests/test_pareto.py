"""Pareto utility tests (repro.optimize.pareto)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.optimize.pareto import (
    dominates,
    hypervolume_2d,
    pareto_filter,
    sweep_goal_front,
)


def _reference_pareto_filter(points):
    """The pairwise scan :func:`pareto_filter` must agree with."""
    n = points.shape[0]
    keep = np.ones(n, dtype=bool)
    for i in range(n):
        if not keep[i]:
            continue
        for j in range(n):
            if i != j and keep[j] and dominates(points[j], points[i]):
                keep[i] = False
                break
    return np.flatnonzero(keep)


class TestDominance:
    def test_strict_dominance(self):
        assert dominates([1, 1], [2, 2])
        assert not dominates([2, 2], [1, 1])

    def test_equal_points_do_not_dominate(self):
        assert not dominates([1, 1], [1, 1])

    def test_partial_improvement_is_dominance(self):
        assert dominates([1, 2], [1, 3])

    def test_incomparable(self):
        assert not dominates([1, 3], [3, 1])
        assert not dominates([3, 1], [1, 3])

    @given(st.lists(
        st.tuples(st.floats(0, 10), st.floats(0, 10)),
        min_size=1, max_size=20,
    ))
    @settings(max_examples=50, deadline=None)
    def test_filter_keeps_only_nondominated(self, raw_points):
        points = np.array(raw_points)
        keep = pareto_filter(points)
        kept = points[keep]
        # No kept point dominated by any other input point.
        for kept_point in kept:
            for other in points:
                assert not dominates(other, kept_point)
        # Every dropped point dominated by someone.
        dropped = set(range(len(points))) - set(keep.tolist())
        for idx in dropped:
            assert any(
                dominates(points[j], points[idx]) for j in range(len(points))
            )

    @pytest.mark.parametrize("n_obj", [1, 2, 3])
    def test_filter_matches_pairwise_reference(self, n_obj):
        rng = np.random.default_rng(n_obj)
        for n in [1, 2] + rng.integers(3, 40, size=30).tolist():
            points = rng.integers(0, 4, size=(n, n_obj)).astype(float)
            copies = n // 3
            if copies:
                src, dst = rng.integers(n, size=(2, copies))
                points[dst] = points[src]
            points[rng.random(n) < 0.1, rng.integers(n_obj)] = np.nan
            np.testing.assert_array_equal(pareto_filter(points),
                                          _reference_pareto_filter(points))

    def test_filter_shape_validated(self):
        with pytest.raises(ValueError):
            pareto_filter(np.zeros(5))


class TestHypervolume:
    def test_single_point(self):
        volume = hypervolume_2d(np.array([[1.0, 1.0]]), [3.0, 3.0])
        assert volume == pytest.approx(4.0)

    def test_point_outside_reference_ignored(self):
        volume = hypervolume_2d(np.array([[4.0, 4.0]]), [3.0, 3.0])
        assert volume == 0.0

    def test_staircase(self):
        points = np.array([[1.0, 2.0], [2.0, 1.0]])
        # Union of two rectangles w.r.t. (3, 3): 2*1 + 1*2 = 4 minus
        # overlap 1*1 -> 3... computed by scanline: (3-1)*(3-2)+(3-2)*(2-1)=3.
        assert hypervolume_2d(points, [3.0, 3.0]) == pytest.approx(3.0)

    def test_dominated_point_adds_nothing(self):
        base = np.array([[1.0, 1.0]])
        extra = np.array([[1.0, 1.0], [2.0, 2.0]])
        ref = [3.0, 3.0]
        assert hypervolume_2d(extra, ref) == hypervolume_2d(base, ref)

    def test_needs_two_columns(self):
        with pytest.raises(ValueError):
            hypervolume_2d(np.zeros((3, 3)), [1, 1, 1])

    def test_better_front_bigger_volume(self):
        worse = np.array([[2.0, 2.0]])
        better = np.array([[1.0, 1.0]])
        ref = [3.0, 3.0]
        assert hypervolume_2d(better, ref) > hypervolume_2d(worse, ref)


class TestSweepFront:
    def test_collects_and_sorts_front(self):
        class FakeResult:
            def __init__(self, objectives):
                self.objectives = objectives

        def solve(goals):
            # Fake solver: projects goals onto the front f1 + f2 = 2.
            t = goals[0] / (goals[0] + goals[1])
            return FakeResult(np.array([2 * t, 2 * (1 - t)]))

        goal_list = [np.array([g, 1 - g]) for g in (0.2, 0.5, 0.8)]
        front = sweep_goal_front(solve, goal_list)
        assert front.shape[1] == 2
        assert np.all(np.diff(front[:, 0]) > 0)
        assert np.all(np.diff(front[:, 1]) < 0)
