"""Scalarization baseline: the weighted sum.

The method the improved goal attainment is compared against in
experiment E5/E6.  The weighted sum is the classic strawman — it
cannot reach non-convex regions of the Pareto front no matter the
weights.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
from scipy import optimize as sp_optimize

from repro.optimize.goal_attainment import (
    GoalAttainmentResult,
    MultiObjectiveProblem,
    _CountedObjectives,
    _stencil_memo,
    _violation,
)
from repro.optimize.metaheuristics import latin_hypercube

__all__ = ["weighted_sum"]


def weighted_sum(
    problem: MultiObjectiveProblem,
    weights,
    n_starts: int = 4,
    seed: Optional[int] = 0,
    max_iterations: int = 200,
) -> GoalAttainmentResult:
    """Minimize ``sum(w_i f_i(x))`` subject to the hard constraints.

    Returned as a :class:`GoalAttainmentResult` with ``goals`` set to
    the attained objectives (gamma = 0 by construction) so downstream
    tables can treat every method uniformly.
    """
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (problem.n_objectives,):
        raise ValueError(
            f"weights must have shape ({problem.n_objectives},)"
        )
    if np.any(weights < 0):
        raise ValueError("weights must be non-negative")
    counter = _CountedObjectives(problem)
    rng = np.random.default_rng(seed)
    starts = latin_hypercube(n_starts, problem.lower, problem.upper, rng)

    def scalar(x):
        return float(np.dot(weights, counter(x)))

    def scalar_gradient(x):
        # scipy's scalar-function gradient differences from the value
        # at x it already holds, unclipped; SLSQP has always just
        # evaluated x, so the memo serves it.
        f0 = scalar(x)
        stencil = stencil_at(x, clip=False)
        values, stencil.g = counter.batch(stencil.points)
        return stencil.jacobian(
            [float(np.dot(weights, f)) for f in values], f0=f0
        )

    def constraint_jacobian(x):
        # SLSQP takes the gradient first, at the same x; only an x
        # outside the box gives the constraints a stencil of their own.
        stencil = stencil_at(x)
        if stencil.g is None:
            stencil.g = counter.constraints(stencil.points)
        return stencil.jacobian(-stencil.g)

    stencil_at = _stencil_memo(problem.lower, problem.upper)
    # SLSQP's first evaluation, at the first start, made early: its G
    # tells whether the problem has constraints.
    counter(starts[0])
    constraint_list = []
    if counter.constraints(starts[0]).size:
        constraint_list.append(
            {"type": "ineq", "fun": lambda x: -counter.constraints(x),
             "jac": constraint_jacobian}
        )
    best_x, best_value, best_success, best_message = None, np.inf, False, ""
    for x0 in starts:
        solution = sp_optimize.minimize(
            scalar, x0, method="SLSQP", jac=scalar_gradient,
            bounds=list(zip(problem.lower, problem.upper)),
            constraints=constraint_list,
            options={"maxiter": max_iterations, "ftol": 1e-10},
        )
        violation = _violation(counter.constraints(solution.x))
        if violation <= 1e-6 and solution.fun < best_value:
            best_x = np.clip(solution.x, problem.lower, problem.upper)
            best_value = float(solution.fun)
            best_success = bool(solution.success)
            best_message = str(solution.message)
    if best_x is None:
        # No feasible solve; return the least-infeasible start for reporting.
        best_x = starts[0]
        best_success = False
        best_message = "no feasible weighted-sum solution found"
    f = counter(best_x)
    violation = _violation(counter.constraints(best_x))
    return GoalAttainmentResult(
        x=best_x, objectives=f, gamma=0.0, goals=f.copy(),
        weights=weights, nfev=counter.nfev, success=best_success,
        constraint_violation=violation, message=best_message,
        health=counter.health,
    )
