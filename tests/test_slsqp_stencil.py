"""Batched SLSQP Jacobians and the continued multi-start (repro.optimize).

SLSQP's constraint Jacobians are its own 2-point forward differences,
evaluated one batch per Jacobian.  The oracle is scipy differencing
the constraints itself: the tests strip every ``jac`` from the SLSQP
call and require the same trajectory — the same evaluated points, in
the same order, the same ``nfev``, ``gamma`` and ``health``.
"""

import dataclasses
import os
import subprocess
import sys
import textwrap
import types

import numpy as np
import pytest
from scipy import optimize as sp_optimize

from repro.core.design import DesignFlow
from repro.experiments.common import reference_device
from repro.obs.telemetry import TelemetryRecorder
from repro.optimize import goal_attainment as ga
from repro.optimize import scalarization
from repro.optimize.checkpoint import MemoryCheckpointStore
from repro.optimize.faults import CATEGORY_NON_FINITE, RunHealth
from repro.optimize.goal_attainment import (
    PENALTY_OBJECTIVE,
    MultiObjectiveProblem,
    _CountedObjectives,
    goal_attainment_improved,
    goal_attainment_standard,
)
from repro.optimize.scalarization import weighted_sum
from toy_problems import pointwise_problem


def _pointwise_minimize(fun, x0, constraints=(), **kwargs):
    """``scipy.optimize.minimize`` with every ``jac`` stripped, so SLSQP
    differences the objective and each constraint block point by
    point."""
    kwargs.pop("jac", None)
    stripped = [{k: v for k, v in c.items() if k != "jac"}
                for c in constraints]
    return sp_optimize.minimize(fun, x0, constraints=stripped, **kwargs)


@pytest.fixture
def pointwise(monkeypatch):
    """Context switch: inside ``with pointwise():`` the optimizers run
    the pointwise oracle."""

    class _Switch:
        def __enter__(self):
            oracle = types.SimpleNamespace(minimize=_pointwise_minimize)
            monkeypatch.setattr(ga, "sp_optimize", oracle)
            monkeypatch.setattr(scalarization, "sp_optimize", oracle)

        def __exit__(self, *exc):
            monkeypatch.undo()

    return _Switch


def _recording(problem):
    """*problem* with ``evaluate`` logging the points it is asked for.

    Returns the problem and the log; ``_distinct(log)`` is the order in
    which new points were first evaluated.
    """
    log = []

    def evaluate(rows):
        log.extend(np.asarray(r).tobytes() for r in rows)
        return problem.evaluate(rows)

    return dataclasses.replace(problem, evaluate=evaluate), log


def _distinct(log):
    return list(dict.fromkeys(log))


def _assert_same_run(oracle, batched):
    (a, log_a), (b, log_b) = oracle, batched
    assert _distinct(log_b) == _distinct(log_a)
    assert b.x.tobytes() == a.x.tobytes()
    assert b.nfev == a.nfev
    assert b.gamma == a.gamma
    assert b.constraint_violation == a.constraint_violation
    assert b.health == a.health


def _lna_problem():
    return DesignFlow(reference_device().small_signal).problem


def _both(pointwise, make_problem, run):
    """``run(problem)`` under the oracle and with the stencil, each on
    a fresh recording problem."""
    with pointwise():
        problem, log = _recording(make_problem())
        oracle = run(problem), log
    problem, log = _recording(make_problem())
    return oracle, (run(problem), log)


def _nonfinite_problem(batched: bool):
    """A convex pair whose first objective is NaN for x[0] > 0.6;
    unless *batched*, the problem evaluates one row at a time."""

    def objectives(x):
        x = np.asarray(x, dtype=float)
        f1 = (x[0] - 1) ** 2 + x[1] ** 2
        return np.array([np.nan if x[0] > 0.6 else f1,
                         (x[0] + 1) ** 2 + x[1] ** 2])

    return pointwise_problem(
        objectives=objectives, n_objectives=2,
        lower=np.array([-1.0, -1.0]), upper=np.array([1.0, 1.0]),
        constraints=lambda x: np.array([0.1 - x[1] ** 2 - x[0]]),
        one_row=not batched,
    )


class TestTrajectoryIdentity:
    def test_standard_run_on_lna(self, pointwise):
        oracle, batched = _both(
            pointwise, _lna_problem,
            lambda p: goal_attainment_standard(
                p, goals=[0.6, -14.0], max_iterations=25))
        _assert_same_run(oracle, batched)
        assert oracle[0].nfev > 100

    def test_improved_run_on_lna(self, pointwise):
        oracle, batched = _both(
            pointwise, _lna_problem,
            lambda p: goal_attainment_improved(
                p, goals=[0.6, -14.0], n_probe=8, n_starts=1,
                tighten_rounds=1, max_iterations=12, seed=4))
        _assert_same_run(oracle, batched)

    def test_start_on_upper_bound_flips_steps(self, pointwise):
        # Four coordinates sit on the upper bound, so scipy steps
        # backwards there; the stencil must take the same steps.
        x0 = np.full(10, 0.5)
        x0[[1, 3, 6, 8]] = 1.0
        oracle, batched = _both(
            pointwise, _lna_problem,
            lambda p: goal_attainment_standard(
                p, goals=[0.6, -14.0], x0=x0, max_iterations=10))
        _assert_same_run(oracle, batched)
        first_stencil = _distinct(batched[1])[:12]
        points = np.array([np.frombuffer(k) for k in first_stencil])
        assert np.any(points[:, 1] < 1.0)

    @pytest.mark.parametrize("batched_problem", [True, False])
    def test_nonfinite_region(self, pointwise, batched_problem):
        oracle, batched = _both(
            pointwise, lambda: _nonfinite_problem(batched_problem),
            lambda p: goal_attainment_improved(
                p, goals=[0.2, 1.5], n_probe=12, n_starts=2,
                tighten_rounds=1, seed=1))
        _assert_same_run(oracle, batched)
        assert batched[0].health.failures.get(CATEGORY_NON_FINITE, 0) > 0

    def test_weighted_sum_on_lna(self, pointwise):
        oracle, batched = _both(
            pointwise, _lna_problem,
            lambda p: weighted_sum(p, [1.0, 0.1], n_starts=2,
                                   max_iterations=15))
        _assert_same_run(oracle, batched)


def _quadratic_problem(batch_fn="rows", fail_above=None):
    """Two quadratics; ``batch_fn`` picks how ``evaluate`` takes a stack
    of more than one row: ``"rows"`` (healthy), ``"nan"`` (+inf for
    x[0] > 0.5), ``"raise"`` (the stack call raises) or ``None`` (a
    problem that refuses stacks: one row at a time).  A one-row call
    raises for x[0] > *fail_above*.  ``calls`` logs one-row calls as
    ``"scalar"`` and the sizes of larger ones as ``"batch"``."""
    calls = {"scalar": 0, "batch": []}

    def value(x):
        f = np.array([x[0] ** 2, (x[1] - 1.0) ** 2])
        if batch_fn == "nan" and x[0] > 0.5:
            f[0] = np.inf
        return f

    def evaluate(rows):
        if len(rows) == 1:
            calls["scalar"] += 1
            if fail_above is not None and rows[0][0] > fail_above:
                raise ValueError("model diverged")
        else:
            calls["batch"].append(len(rows))
            if batch_fn == "raise":
                raise np.linalg.LinAlgError("singular batch")
            if batch_fn is None:
                raise RuntimeError("one row at a time")
        return np.array([value(x) for x in rows]), np.zeros((len(rows), 0))

    problem = MultiObjectiveProblem(
        evaluate=evaluate, n_objectives=2,
        lower=np.zeros(2), upper=np.ones(2),
    )
    return problem, calls


class TestCountedBatch:
    POINTS = np.array([[0.1, 0.2], [0.1, 0.2], [0.3, 0.2], [0.7, 0.1],
                       [0.1, 0.2], [0.7, 0.1], [0.7, 0.1]])

    def _twin(self, problem, memo=None):
        """The pointwise reference: the same rows one call at a time."""
        counter = _CountedObjectives(problem)
        if memo is not None:
            counter(memo)
        values = np.array([counter(x) for x in self.POINTS])
        return counter, values

    @pytest.mark.parametrize("batch_fn", ["rows", "nan", "raise", None])
    def test_matches_pointwise_counter(self, batch_fn):
        memo = self.POINTS[0]
        problem, calls = _quadratic_problem(batch_fn)
        twin, expected = self._twin(problem, memo)
        counter = _CountedObjectives(problem)
        counter(memo)
        values, g = counter.batch(self.POINTS)
        np.testing.assert_array_equal(values, expected)
        assert g.shape == (len(self.POINTS), 0)
        assert counter.nfev == twin.nfev == 1 + 4
        assert counter.health == twin.health
        assert counter.state()["last_key"] == self.POINTS[-1].tobytes()

    def test_one_batch_of_distinct_fresh_rows(self):
        problem, calls = _quadratic_problem()
        counter = _CountedObjectives(problem)
        counter(self.POINTS[0])
        counter.batch(self.POINTS)
        # The memo row is not re-evaluated; the recurring rows are
        # counted but ride the one batch once.
        assert calls["batch"] == [3]
        assert calls["scalar"] == 1

    def test_all_memo_rows_make_no_call(self):
        problem, calls = _quadratic_problem()
        counter = _CountedObjectives(problem)
        counter(self.POINTS[0])
        counter.batch(self.POINTS[:2])
        assert calls["batch"] == [] and counter.nfev == 1

    def test_nonfinite_entries_become_penalty(self):
        problem, _ = _quadratic_problem("nan")
        counter = _CountedObjectives(problem)
        values, _ = counter.batch(self.POINTS)
        # A failed row is penalized whole, not per entry.
        assert np.all(values[self.POINTS[:, 0] > 0.5]
                      == PENALTY_OBJECTIVE)
        assert np.all(values[self.POINTS[:, 0] <= 0.5]
                      < PENALTY_OBJECTIVE)
        # [0.7, 0.1] is a fresh evaluation twice (after 0.3 and after
        # 0.1); its repeat at the end is the memo.
        assert counter.health.failures == {CATEGORY_NON_FINITE: 2}

    def test_failing_batch_falls_back_to_rows(self):
        problem, calls = _quadratic_problem("raise", fail_above=0.5)
        counter = _CountedObjectives(problem, RunHealth())
        values, _ = counter.batch(self.POINTS)
        # The three distinct fresh rows are re-evaluated one by one;
        # the failing one counts (and fails) twice, as it does pointwise.
        assert calls["batch"] == [3]
        assert calls["scalar"] == 3
        assert counter.nfev == 5
        assert np.all(values[3] == PENALTY_OBJECTIVE)
        assert counter.health.failures == {"exception": 2}
        assert counter.health.retries == 0


    def test_failed_rows_take_the_width_seen_before(self):
        # A call whose every row fails cannot tell G's width; the
        # counter gives it the width of the rows it has seen, so SLSQP's
        # constraint block keeps its size.
        def constraints(x):
            if x[0] > 0.5:
                raise ValueError("model diverged")
            return np.array([x[0] - 0.9, x[1] - 0.9])

        problem = pointwise_problem(
            objectives=lambda x: np.array([x[0] ** 2, x[1] ** 2]),
            n_objectives=2, lower=np.zeros(2), upper=np.ones(2),
            constraints=constraints)
        counter = _CountedObjectives(problem)
        assert counter.constraints(np.array([0.1, 0.2])).shape == (2,)
        g = counter.constraints(np.array([0.7, 0.2]))
        assert g.shape == (2,) and np.all(g == PENALTY_OBJECTIVE)
        values, g = counter.batch(np.array([[0.3, 0.2], [0.7, 0.1],
                                            [0.8, 0.1]]))
        assert g.shape == (3, 2)
        assert np.all(values[1:] == PENALTY_OBJECTIVE)
        assert np.all(g[1:] == PENALTY_OBJECTIVE)
        values, g = counter.batch(np.array([[0.9, 0.1], [0.6, 0.1]]))
        assert g.shape == (2, 2) and np.all(g == PENALTY_OBJECTIVE)
        assert counter.nfev == 5
        assert counter.health.failures == {"exception": 4}


_REAL_SOLVE = ga._solve_gembicki_nlp


def _feasible_after(n_bad):
    """A ``_solve_gembicki_nlp`` whose first *n_bad* solves end at an
    infeasible point; it logs every start it is given."""
    starts = []

    def solve(problem, goals, weights, x0, counter, max_iterations=200):
        starts.append(np.array(x0))
        if len(starts) <= n_bad:
            return (np.array([-2.0, 0.0]), 5.0, False,
                    "Positive directional derivative for linesearch")
        return _REAL_SOLVE(problem, goals, weights, x0, counter,
                           max_iterations)

    return solve, starts


def _constrained():
    return pointwise_problem(
        objectives=lambda x: np.array([(x[0] - 1) ** 2 + x[1] ** 2,
                                       (x[0] + 1) ** 2 + x[1] ** 2]),
        n_objectives=2, lower=np.array([-3.0, -3.0]),
        upper=np.array([3.0, 3.0]),
        constraints=lambda x: np.array([0.25 - x[0]]),
    )


class TestContinuedStarts:
    KWARGS = dict(goals=np.array([0.5, 1.5]), n_probe=10, n_starts=2,
                  tighten_rounds=1, seed=3)

    def _run(self, monkeypatch, n_bad, **extra):
        solve, starts = _feasible_after(n_bad)
        monkeypatch.setattr(ga, "_solve_gembicki_nlp", solve)
        seeds = []
        monkeypatch.setattr(
            ga, "_emit_final_population",
            lambda algorithm, population, fitness: seeds.append(
                (population, fitness)))
        recorder = TelemetryRecorder()
        result = goal_attainment_improved(
            _constrained(), on_generation=recorder,
            **{**self.KWARGS, **extra})
        return result, starts, recorder, seeds

    def test_feasible_first_starts_run_exactly_n_starts(self, monkeypatch):
        result, starts, recorder, seeds = self._run(monkeypatch, 0)
        assert len(starts) == 2 + 1  # two starts, one tightening round
        assert result.constraint_violation <= 1e-6
        assert len(seeds[0][0]) == 1 + 2

    def test_infeasible_starts_continue_until_feasible(self, monkeypatch):
        result, starts, recorder, seeds = self._run(monkeypatch, 4)
        stages = [r.extra["stage"] for r in recorder.records]
        assert stages[:6] == ["probe"] + ["nlp_start"] * 5
        assert recorder.is_contiguous()
        assert result.constraint_violation <= 1e-6
        # The fifth start is the first real solve and ends feasible.
        assert len(set(s.tobytes() for s in starts[:5])) == 5
        population, fitness = seeds[0]
        assert len(population) == len(fitness) == 1 + 5
        np.testing.assert_array_equal(population[1:], np.array(starts[:5]))
        assert recorder.records[-1].nfev == result.nfev

    def test_stops_when_the_probes_run_out(self, monkeypatch):
        result, starts, recorder, _ = self._run(monkeypatch, 10 ** 6)
        assert len(starts) == self.KWARGS["n_probe"]
        assert result.constraint_violation > 1e-6
        stages = [r.extra["stage"] for r in recorder.records]
        assert "tighten" not in stages

    def test_resume_inside_continued_starts_is_exact(self, monkeypatch):
        clean, _, clean_trace, _ = self._run(monkeypatch, 4)
        store = MemoryCheckpointStore()
        solve, starts = _feasible_after(4)

        def killed(*args, **kwargs):
            if len(starts) == 3:  # at the fourth start, k = 3
                raise KeyboardInterrupt("simulated kill")
            return solve(*args, **kwargs)

        monkeypatch.setattr(ga, "_solve_gembicki_nlp", killed)
        resumed = TelemetryRecorder()
        with pytest.raises(KeyboardInterrupt):
            goal_attainment_improved(_constrained(), checkpoint_store=store,
                                     on_generation=resumed, **self.KWARGS)
        # The resumed run begins at k = 3, which the clean run's fake
        # also failed; k = 4 solves for real, as in the clean run.
        resume_solve, _ = _feasible_after(1)
        monkeypatch.setattr(ga, "_solve_gembicki_nlp", resume_solve)
        result = goal_attainment_improved(
            _constrained(), checkpoint_store=store, on_generation=resumed,
            **self.KWARGS)
        assert resumed.is_contiguous()
        key = [(r.generation, r.nfev, r.best, r.extra["stage"])
               for r in resumed.records]
        assert key == [(r.generation, r.nfev, r.best, r.extra["stage"])
                       for r in clean_trace.records]
        assert result.x.tobytes() == clean.x.tobytes()
        assert result.nfev == clean.nfev


_ONE_THREAD_RUNS = textwrap.dedent("""
    from repro.core.design import DesignFlow
    from repro.experiments.common import reference_device

    flow_kwargs = dict(n_probe=40, n_starts=3, tighten_rounds=2)
    for seed in (3961950318, 11):
        flow = DesignFlow(reference_device().small_signal)
        result = flow.run_improved(seed=seed, **flow_kwargs)
        print(seed, repr(result.constraint_violation))
""")


def test_one_thread_design_runs_end_feasible():
    """Under one BLAS thread all three planned starts of these two runs
    stop infeasible, so they end feasible only by starting past
    ``n_starts``: an e2e ``design`` input (seed 3961950318) and E8's
    selected-design run (seed 11)."""
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = os.path.abspath(
        os.path.join(os.path.dirname(__file__), os.pardir, "src"))
    out = subprocess.run([sys.executable, "-c", _ONE_THREAD_RUNS], env=env,
                         capture_output=True, text=True, timeout=300,
                         check=True).stdout
    violations = {int(seed): float(v) for seed, v in
                  (line.split() for line in out.strip().splitlines())}
    assert set(violations) == {3961950318, 11}
    for seed, violation in violations.items():
        assert violation <= 1e-6, (seed, violation)
