"""Pareto-front utilities for minimization problems.

Used by experiment E6 to draw the NF/GT trade-off front and to score
how close each optimizer's answers land to it, and by NSGA-II's
non-dominated sort (:func:`dominance_matrix`).
"""

from __future__ import annotations

from typing import Callable, List, Optional

import numpy as np

__all__ = [
    "dominates",
    "dominance_matrix",
    "pareto_filter",
    "hypervolume_2d",
    "sweep_goal_front",
]


def dominates(a, b, tolerance: float = 0.0) -> bool:
    """True when point *a* Pareto-dominates *b* (all <=, one strictly <)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return bool(np.all(a <= b + tolerance) and np.any(a < b - tolerance))


def dominance_matrix(points) -> np.ndarray:
    """``(n, n)`` boolean matrix whose ``[i, j]`` says *i* dominates *j*.

    Two broadcast ``(n, n)`` comparisons per objective instead of
    n(n-1) calls to :func:`dominates`, with the same answer pair by
    pair: a row holding a NaN neither dominates nor is dominated.
    """
    points = np.asarray(points, dtype=float)
    n = points.shape[0]
    no_worse = np.ones((n, n), dtype=bool)
    better = np.zeros((n, n), dtype=bool)
    for column in points.T:
        a, b = column[:, None], column[None, :]
        no_worse &= a <= b
        better |= a < b
    return no_worse & better


def pareto_filter(points) -> np.ndarray:
    """Indices of the non-dominated points, in input order."""
    points = np.asarray(points, dtype=float)
    if points.ndim != 2:
        raise ValueError(f"points must be (n, m), got shape {points.shape}")
    return np.flatnonzero(~dominance_matrix(points).any(axis=0))


def hypervolume_2d(points, reference) -> float:
    """Dominated hypervolume of a 2-objective front w.r.t. *reference*.

    Both objectives minimized; points beyond the reference contribute
    nothing.  Larger is better.
    """
    points = np.asarray(points, dtype=float)
    reference = np.asarray(reference, dtype=float)
    if points.ndim != 2 or points.shape[1] != 2:
        raise ValueError("hypervolume_2d needs (n, 2) points")
    front = points[pareto_filter(points)]
    front = front[np.all(front <= reference, axis=1)]
    if front.size == 0:
        return 0.0
    front = front[np.argsort(front[:, 0])]
    volume = 0.0
    prev_f2 = reference[1]
    for f1, f2 in front:
        if f2 < prev_f2:
            volume += (reference[0] - f1) * (prev_f2 - f2)
            prev_f2 = f2
    return float(volume)


def sweep_goal_front(
    solve: Callable[[np.ndarray], "object"],
    goal_list,
    extract: Optional[Callable[[object], np.ndarray]] = None,
) -> np.ndarray:
    """Trace a front by solving for a list of goal vectors.

    ``solve(goals)`` runs one multi-objective solve; ``extract`` pulls
    the objective vector from its result (defaults to the
    ``objectives`` attribute).  Returns the non-dominated subset of the
    collected points, sorted by the first objective.
    """
    if extract is None:
        extract = lambda result: result.objectives  # noqa: E731
    collected: List[np.ndarray] = []
    for goals in goal_list:
        result = solve(np.asarray(goals, dtype=float))
        collected.append(np.asarray(extract(result), dtype=float))
    points = np.vstack(collected)
    front = points[pareto_filter(points)]
    return front[np.argsort(front[:, 0])]
