"""Toy multi-objective problems from pointwise functions.

``MultiObjectiveProblem.evaluate`` takes a ``(B, n)`` stack; the tests'
toy problems are easiest to write one point at a time, so
:func:`pointwise_problem` stacks a pointwise objective (and constraint)
function into that one call.
"""

import numpy as np

from repro.optimize.goal_attainment import MultiObjectiveProblem


def pointwise_problem(objectives, n_objectives, lower, upper,
                      constraints=None, one_row=False, **kwargs):
    """A :class:`MultiObjectiveProblem` whose ``evaluate`` applies the
    pointwise functions row by row.

    Without *constraints* ``G`` has no columns.  With *one_row* the
    problem refuses stacks of more than one row, so an optimizer's
    failure rule evaluates every row of a stack alone.
    """

    def evaluate(x):
        if one_row and len(x) > 1:
            raise RuntimeError("this problem evaluates one row at a time")
        f = np.array([np.asarray(objectives(row), dtype=float)
                      for row in x])
        if constraints is None:
            return f, np.zeros((len(x), 0))
        return f, np.array([np.asarray(constraints(row), dtype=float)
                            for row in x])

    return MultiObjectiveProblem(
        evaluate=evaluate, n_objectives=n_objectives, lower=lower,
        upper=upper, **kwargs)
