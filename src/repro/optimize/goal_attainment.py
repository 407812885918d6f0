"""Goal-attainment multi-objective optimization: standard and improved.

**Standard method** (Gembicki 1974, as shipped in classic optimization
toolboxes): introduce a scalar attainment factor ``gamma`` and solve ::

    minimize    gamma
    subject to  f_i(x) - w_i * gamma <= goal_i     (each objective)
                g_j(x) <= 0                        (hard constraints)
                lower <= x <= upper

A negative ``gamma`` means every goal is over-attained.  The method's
well-known weaknesses: the solution depends strongly on the weight
scaling when objectives have different magnitudes, the single local
NLP solve stalls in local minima of non-convex RF objectives, and a
conservative goal vector leaves the solution short of the Pareto
surface.

**Improved method** — the paper announces "a substantial improvement of
a standard method for the multi-objective optimization" without
spelling it out in the abstract (full text unavailable; see DESIGN.md),
so this class reconstructs the three fixes that address exactly those
weaknesses:

1. *auto-scaling*: objective ranges are probed on a Latin-hypercube
   sample and the weights are normalized by them, making the
   attainment factor dimensionless and the solution invariant to
   objective units;
2. *meta-heuristic multi-start*: the NLP is restarted from the best
   probe points (global information), not a single user guess — at
   least ``n_starts`` of them, and more, in probe rank order, while
   no start has ended feasible;
3. *goal tightening*: after a solve, goals are re-anchored at the
   attained objective values minus a fraction of the range, and the
   NLP re-run — iterating the solution onto the Pareto surface no
   matter how timid the original goals were.

Both methods count objective evaluations identically, so experiment E5
compares them fairly.  SLSQP's constraint Jacobians are its own
forward differences, evaluated as one batch per Jacobian (see
``_Stencil``): the same trajectory as pointwise differencing, at one
engine call instead of ``n + 1``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np
from scipy import optimize as sp_optimize
from scipy.optimize._numdiff import approx_derivative

from repro.obs import tracer as _obs_tracer
from repro.obs.telemetry import GenerationRecord
from repro.optimize.batching import BatchShardExecutor, validate_workers
from repro.optimize.checkpoint import CheckpointStore, resume_or_none
from repro.optimize.faults import (
    CATEGORY_NON_FINITE,
    RunHealth,
    classify_exception,
)
from repro.optimize.metaheuristics import (
    _emit_final_population,
    _restore_telemetry,
    _save_checkpoint,
    _seed_population,
    latin_hypercube,
)

__all__ = [
    "MultiObjectiveProblem",
    "guarded_evaluate",
    "GoalAttainmentResult",
    "goal_attainment_standard",
    "goal_attainment_improved",
]

#: Finite value of every objective and constraint of a failed row
#: (:func:`guarded_evaluate`) — ``inf``/``nan`` would break SLSQP's line
#: search and NSGA-II's crowding distances; a large finite value just
#: makes the point maximally unattractive.
PENALTY_OBJECTIVE = 1.0e9

#: SLSQP's default finite-difference step (its ``eps`` option): the
#: absolute step of the forward differences it takes without ``jac=``.
_FD_STEP = np.sqrt(np.finfo(np.float64).eps)


@dataclass
class MultiObjectiveProblem:
    """A box-bounded multi-objective minimization problem.

    ``evaluate(X)`` maps a ``(B, n)`` stack of design points to the
    objectives ``F`` (``(B, n_objectives)``, all minimized) and the
    constraints ``G`` (``(B, k)``, each ``<= 0`` at a feasible point)
    of every row, so a point's objectives and constraints come from
    one model solve.  ``k = 0`` poses an unconstrained problem.
    Optimizers call it only through :func:`guarded_evaluate`.
    """

    evaluate: Callable[[np.ndarray], Tuple[np.ndarray, np.ndarray]]
    n_objectives: int
    lower: np.ndarray
    upper: np.ndarray
    objective_names: Sequence[str] = ()

    # Patch targets of benchmarks/e2e/layers.py, which wraps the ones a
    # built problem sets; ROADMAP item 11 step 1 deletes them.
    objectives = constraints = objectives_batch = constraints_batch = None

    def __post_init__(self):
        self.lower = np.asarray(self.lower, dtype=float)
        self.upper = np.asarray(self.upper, dtype=float)
        if self.lower.shape != self.upper.shape or self.lower.ndim != 1:
            raise ValueError("bounds must be 1-D arrays of equal shape")
        if np.any(self.lower >= self.upper):
            raise ValueError("lower bounds must be strictly below upper")
        if self.n_objectives < 2:
            raise ValueError("a multi-objective problem needs >= 2 objectives")
        if not self.objective_names:
            self.objective_names = tuple(
                f"f{i + 1}" for i in range(self.n_objectives)
            )

    def sharded(self, executor) -> "MultiObjectiveProblem":
        """This problem with ``evaluate`` sharded over *executor*.

        *executor* is a
        :class:`~repro.optimize.batching.BatchShardExecutor`; the
        returned problem evaluates per-worker row blocks concurrently
        (the model's hot loop is numpy ``linalg.solve``, which releases
        the GIL) and restacks ``F`` and ``G`` in row order, so results
        stay bit-identical to the unsharded call.  The caller keeps
        ownership of *executor* and closes it when the run is done.
        """
        evaluate = self.evaluate

        def sharded_evaluate(x):
            parts = executor.map_shards(evaluate, x)
            return tuple(np.concatenate(blocks) for blocks in zip(*parts))

        return replace(self, evaluate=sharded_evaluate)


def guarded_evaluate(problem: MultiObjectiveProblem, x: np.ndarray,
                     width: Optional[int] = None):
    """``problem.evaluate(x)`` with every failed row isolated.

    The one failure rule of the multi-objective optimizers:

    * when ``evaluate`` raises an ``Exception`` on the stack, each row
      is evaluated alone (``KeyboardInterrupt`` and ``SystemExit``
      propagate, as in :func:`~repro.optimize.faults.guarded_call`);
    * a row fails when it still raises (category
      :func:`~repro.optimize.faults.classify_exception`) or when its
      ``F`` or ``G`` holds a non-finite entry (``non_finite``);
    * a failed row gets :data:`PENALTY_OBJECTIVE` in every ``F`` and
      ``G`` entry: worse than any healthy row and, under any
      constraint, never feasible;
    * a result of the wrong row count or width raises ``ValueError``.

    ``G`` has the width of the call's healthy rows; a call without one
    gives its failed rows *width* columns (one when ``None``).

    Returns ``(F, G, failures)``, where ``failures[i]`` is the failure
    category of row *i* or ``None``.  Nothing is recorded here and no
    retry is counted: each caller records the failures of the rows it
    counts, so its health does not depend on how rows were batched.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    n_rows, n_obj = x.shape[0], problem.n_objectives
    failures: List[Optional[str]] = [None] * n_rows
    try:
        result = problem.evaluate(x)
    except Exception:  # noqa: BLE001 - isolate the failing rows
        rows = []
        for i in range(n_rows):
            try:
                row = problem.evaluate(x[i:i + 1])
            except Exception as exc:  # noqa: BLE001 - absorb per row
                failures[i] = classify_exception(exc)
                row = None
            rows.append(_checked(row, 1, n_obj) if failures[i] is None
                        else None)
        widths = {g.shape[1] for _, g in filter(None, rows)}
        if len(widths) > 1:
            raise ValueError(f"evaluate returned G rows of widths {widths}")
        k = widths.pop() if widths else (1 if width is None else width)
        f = np.full((n_rows, n_obj), PENALTY_OBJECTIVE)
        g = np.full((n_rows, k), PENALTY_OBJECTIVE)
        for i, row in enumerate(rows):
            if row is not None:
                f[i], g[i] = row[0][0], row[1][0]
    else:
        f, g = _checked(result, n_rows, n_obj)
    bad = ~(np.all(np.isfinite(f), axis=1) & np.all(np.isfinite(g), axis=1))
    for i in np.flatnonzero(bad):
        failures[i] = CATEGORY_NON_FINITE
        f[i] = g[i] = PENALTY_OBJECTIVE
    return f, g, failures


def _checked(result, n_rows: int, n_obj: int):
    """``evaluate``'s ``(F, G)`` as fresh float arrays, shapes checked."""
    f, g = (np.array(part, dtype=float) for part in result)
    if f.shape != (n_rows, n_obj) or g.ndim != 2 or g.shape[0] != n_rows:
        raise ValueError(
            f"evaluate returned F of shape {f.shape} and G of shape "
            f"{g.shape} for {n_rows} rows of a {n_obj}-objective problem"
        )
    return f, g


@dataclass
class GoalAttainmentResult:
    """Outcome of a goal-attainment solve."""

    x: np.ndarray
    objectives: np.ndarray
    gamma: float
    goals: np.ndarray
    weights: np.ndarray
    nfev: int
    success: bool
    constraint_violation: float
    message: str = ""
    history: List[float] = field(default_factory=list)
    health: RunHealth = field(default_factory=RunHealth)

    def attained(self, tolerance: float = 1e-6) -> bool:
        """True when every goal is met (gamma <= tolerance)."""
        return self.success and self.gamma <= tolerance


class _CountedObjectives:
    """Counting memo over :func:`guarded_evaluate`, shared by the SLSQP
    callbacks of a run.

    ``nfev`` counts fresh objective rows: a row is fresh when it
    differs from the row before it (the memo, for the first row of a
    call), so a point that recurs after another counts again, and each
    fresh row's failure is recorded in ``health``.  The memo holds the
    ``F`` and ``G`` of the last counted row, so the constraints at the
    point just evaluated cost nothing.  Failed rows follow
    :func:`guarded_evaluate`: finite penalties instead of an exception
    that would sink the surrounding SLSQP solve.
    """

    def __init__(self, problem: MultiObjectiveProblem,
                 health: Optional[RunHealth] = None):
        self._problem = problem
        self.health = health if health is not None else RunHealth()
        self.nfev = 0
        self._last_key = None
        self._last_value = None
        self._last_g = None
        self._width = None

    def _evaluate(self, points: np.ndarray):
        """:func:`guarded_evaluate`, with the ``G`` width seen so far
        given to calls whose every row fails."""
        f, g, failures = guarded_evaluate(self._problem, points, self._width)
        self._width = g.shape[1]
        return f, g, failures

    def __call__(self, x: np.ndarray) -> np.ndarray:
        key = x.tobytes()
        if key != self._last_key:
            f, g, failures = self._evaluate(x[None, :])
            self._accept(key, f[0], g[0], failures[0])
        return self._last_value

    def batch(self, points: np.ndarray):
        """``F`` and ``G`` of ``[self(x) for x in points]``, in one call.

        Counts, memoizes and records failures exactly as the calls one
        at a time would; the distinct fresh rows go to
        :func:`guarded_evaluate` at once.
        """
        points = np.asarray(points, dtype=float)
        keys = [x.tobytes() for x in points]
        fresh = {}
        previous = self._last_key
        for key, x in zip(keys, points):
            if key != previous:
                fresh.setdefault(key, x)
            previous = key
        if fresh:
            by_key = dict(zip(fresh, zip(*self._evaluate(
                np.array(list(fresh.values()))))))
        f = np.empty((len(points), self._problem.n_objectives))
        g = []
        for i, key in enumerate(keys):
            if key != self._last_key:
                self._accept(key, *by_key[key])
            f[i] = self._last_value
            g.append(self._memo_g())
        return f, np.array(g)

    def constraints(self, x: np.ndarray) -> np.ndarray:
        """``G`` at a point, or at each row of a stack, uncounted.

        The memo serves its own point; anything else is evaluated in
        one call that leaves the memo, ``nfev`` and ``health`` alone.
        """
        x = np.asarray(x, dtype=float)
        if x.ndim == 1 and x.tobytes() == self._last_key:
            return self._memo_g()
        g = self._evaluate(np.atleast_2d(x))[1]
        return g if x.ndim == 2 else g[0]

    def _memo_g(self) -> np.ndarray:
        if self._last_g is None:  # restored: checkpoints keep no G
            point = np.frombuffer(self._last_key)[None, :]
            self._last_g = self._evaluate(point)[1][0]
        return self._last_g

    def _accept(self, key: bytes, value, g, failure) -> None:
        """Count one fresh evaluation and memoize its values."""
        if failure is not None:
            self.health.record(failure)
        self._last_key, self._last_value, self._last_g = key, value, g
        self.nfev += 1

    # -- checkpoint support -------------------------------------------------
    def state(self):
        """Snapshot (count + memo) so a resumed run counts identically."""
        return {
            "nfev": self.nfev,
            "last_key": self._last_key,
            "last_value": None if self._last_value is None
            else np.array(self._last_value),
        }

    def restore(self, state):
        self.nfev = int(state["nfev"])
        self._last_key = state["last_key"]
        self._last_value = state["last_value"]
        self._last_g = None


class _Stencil:
    """The points of one forward-difference Jacobian, as SLSQP takes it.

    Without ``jac=``, SLSQP differentiates each constraint block with
    ``approx_derivative(fun, x, method="2-point", abs_step=eps,
    bounds=...)`` and calls ``fun`` once per point.  A stencil runs
    that same call with a recording ``fun`` to learn the points —
    ``x`` first, then one step per coordinate, flipped at the bounds —
    so a caller can evaluate them in one batch; :meth:`jacobian` runs
    it again on the batch's values, so the differences and divisions
    are scipy's own and the Jacobian is bit-identical.  The batch that
    differences the objectives leaves the points' constraints in ``g``
    for the constraint block's Jacobian.
    """

    def __init__(self, x: np.ndarray, bounds):
        self.x = x
        self.bounds = bounds
        self.g = None
        points = []

        def record(point):
            points.append(np.array(point, dtype=float))
            return 0.0

        self._difference(record)
        self.points = np.array(points)

    def _difference(self, fun, f0=None):
        return approx_derivative(fun, self.x, method="2-point",
                                 abs_step=_FD_STEP, bounds=self.bounds,
                                 f0=f0)

    def jacobian(self, values, f0=None) -> np.ndarray:
        """The Jacobian given ``values[i]``, the function at ``points[i]``.

        With ``f0`` (the value at ``x``, as scipy's scalar-function
        gradient passes it) ``values[0]`` is not read.
        """
        lookup = {p.tobytes(): v for p, v in zip(self.points, values)}
        return self._difference(lambda point: lookup[point.tobytes()], f0)


def _stencil_memo(lower: np.ndarray, upper: np.ndarray):
    """``at(x, clip=True)``: the :class:`_Stencil` at ``x``, reused while
    ``x`` repeats, so the blocks of one SLSQP Jacobian share one
    stencil.  SLSQP clips ``x`` into the box before it differences a
    constraint block, but not before it differences the objective."""
    last = [None]

    def at(x, clip=True):
        if clip:
            x = np.clip(x, lower, upper)
        if last[0] is None or last[0].x.tobytes() != x.tobytes():
            last[0] = _Stencil(x, (lower, upper))
        return last[0]

    return at


def _solve_gembicki_nlp(problem: MultiObjectiveProblem, goals, weights,
                        x0, counter: _CountedObjectives,
                        max_iterations: int = 200):
    """One SLSQP solve of the Gembicki reformulation from x0.

    Both constraint blocks carry a ``jac`` that evaluates SLSQP's own
    finite-difference stencil as one batch (:class:`_Stencil`): the
    attainment block through :meth:`_CountedObjectives.batch`, whose
    ``G`` the spec block differences (SLSQP differentiates the blocks
    in order at one point).  The trajectory is the one SLSQP takes
    when it differences the constraints itself.
    """
    n_x = problem.lower.size
    goals = np.asarray(goals, dtype=float)
    weights = np.asarray(weights, dtype=float)

    def objective(y):
        return y[n_x]

    def attainment(y, f):
        return goals + weights * y[n_x] - f  # must be >= 0

    def attainment_constraints(y):
        return attainment(y, counter(y[:n_x]))

    def attainment_jacobian(y):
        stencil = stencil_at(y)
        values, stencil.g = counter.batch(stencil.points[:, :n_x])
        return stencil.jacobian(
            [attainment(p, f) for p, f in zip(stencil.points, values)]
        )

    def spec_jacobian(y):
        stencil = stencil_at(y)
        return stencil.jacobian(-stencil.g)

    x0 = np.asarray(x0, dtype=float)
    f0 = counter(x0)
    constraint_list = [
        {"type": "ineq", "fun": attainment_constraints,
         "jac": attainment_jacobian},
    ]
    if counter.constraints(x0).size:
        constraint_list.append(
            {"type": "ineq",
             "fun": lambda y: -counter.constraints(y[:n_x]),
             "jac": spec_jacobian}
        )
    gamma0 = float(np.max((f0 - goals) / weights)) + 0.1
    y0 = np.concatenate([x0, [gamma0]])
    gamma_span = 1e3 * (1.0 + abs(gamma0))
    bounds = list(zip(problem.lower, problem.upper)) + [
        (-gamma_span, gamma_span)
    ]
    stencil_at = _stencil_memo(np.append(problem.lower, -gamma_span),
                               np.append(problem.upper, gamma_span))
    solution = sp_optimize.minimize(
        objective, y0, method="SLSQP", bounds=bounds,
        constraints=constraint_list,
        options={"maxiter": max_iterations, "ftol": 1e-10},
    )
    x_final = np.clip(solution.x[:n_x], problem.lower, problem.upper)
    return x_final, float(solution.x[n_x]), bool(solution.success), str(
        solution.message
    )


def _violation(g: np.ndarray) -> float:
    """Largest constraint violation of one point's ``G`` (0 if none)."""
    return float(np.max(np.maximum(g, 0.0), initial=0.0))


def _package(counter, x, goals, weights, success, message,
             history) -> GoalAttainmentResult:
    f = counter(x)
    gamma = float(np.max((f - goals) / weights))
    return GoalAttainmentResult(
        x=np.asarray(x, dtype=float), objectives=f, gamma=gamma,
        goals=np.asarray(goals, dtype=float),
        weights=np.asarray(weights, dtype=float), nfev=counter.nfev,
        success=success, constraint_violation=_violation(
            counter.constraints(x)),
        message=message, history=history, health=counter.health,
    )


def goal_attainment_standard(
    problem: MultiObjectiveProblem,
    goals,
    weights=None,
    x0=None,
    max_iterations: int = 200,
) -> GoalAttainmentResult:
    """The textbook Gembicki method: one NLP solve, user-supplied weights.

    Defaults follow classic toolbox behaviour: ``weights = |goals|``
    (units-carrying, hence the scaling pathology) and a mid-box start.
    """
    goals = np.asarray(goals, dtype=float)
    if goals.shape != (problem.n_objectives,):
        raise ValueError(
            f"goals must have shape ({problem.n_objectives},), "
            f"got {goals.shape}"
        )
    if weights is None:
        weights = np.maximum(np.abs(goals), 1e-12)
    weights = np.asarray(weights, dtype=float)
    if np.any(weights <= 0):
        raise ValueError("weights must be positive")
    if x0 is None:
        x0 = 0.5 * (problem.lower + problem.upper)
    counter = _CountedObjectives(problem)
    x_final, gamma, success, message = _solve_gembicki_nlp(
        problem, goals, weights, x0, counter, max_iterations
    )
    return _package(counter, x_final, goals, weights, success, message,
                    history=[gamma])


def goal_attainment_improved(
    problem: MultiObjectiveProblem,
    goals,
    weights=None,
    n_probe: int = 64,
    n_starts: int = 6,
    tighten_rounds: int = 2,
    tighten_fraction: float = 0.04,
    seed: Optional[int] = 0,
    initial_population: Optional[np.ndarray] = None,
    max_iterations: int = 200,
    workers: Optional[int] = None,
    checkpoint_store: Optional[CheckpointStore] = None,
    resume: bool = True,
    on_generation: Optional[Callable[[GenerationRecord], None]] = None,
) -> GoalAttainmentResult:
    """The paper-style improved goal attainment (see module docstring).

    ``n_starts`` is the least number of NLP starts: while the best
    design so far violates the constraints (by more than 1e-6), the
    run keeps starting from the next-ranked probe, until a start ends
    feasible or the probes run out.  A run whose first ``n_starts``
    starts give a feasible design runs exactly ``n_starts``.

    ``initial_population`` warm-starts the probe stage: its rows
    (clipped to the bounds) replace the leading LHS probes, so the
    multi-start ordering sees a nearby archived run's best designs
    first.  The finished run journals the NLP starts it ran plus the
    final design as a ``final_population`` event for future warm starts.

    ``workers > 1`` shards the population-level probe stage — the only
    batched part of this algorithm — across a thread pool
    (:meth:`MultiObjectiveProblem.sharded`); row order and per-row
    results are preserved, so the run stays bit-identical.  The
    sequential NLP stages are unaffected.

    With a ``checkpoint_store`` the run snapshots its state after the
    probe stage, after every NLP start, and after every tightening
    round (the counter memo rides along, so a resumed run reports the
    same ``nfev`` as an uninterrupted one).

    ``on_generation`` receives one
    :class:`~repro.obs.telemetry.GenerationRecord` per completed stage
    — the probe is generation 0, NLP start *k* is generation ``k + 1``,
    tightening round *r* is generation ``n_run + r + 1`` for the
    ``n_run`` starts actually run — and rides inside checkpoints when
    it exposes ``state()``/``restore()``.
    """
    workers = validate_workers(workers)
    if workers is not None and workers > 1:
        # Re-enter with the sharded problem so the executor's lifetime
        # brackets exactly one run; the inner call sees workers=None.
        executor = BatchShardExecutor(workers)
        try:
            return goal_attainment_improved(
                problem.sharded(executor), goals, weights=weights,
                n_probe=n_probe, n_starts=n_starts,
                tighten_rounds=tighten_rounds,
                tighten_fraction=tighten_fraction, seed=seed,
                initial_population=initial_population,
                max_iterations=max_iterations, workers=None,
                checkpoint_store=checkpoint_store, resume=resume,
                on_generation=on_generation,
            )
        finally:
            executor.close()

    goals = np.asarray(goals, dtype=float)
    if goals.shape != (problem.n_objectives,):
        raise ValueError(
            f"goals must have shape ({problem.n_objectives},), "
            f"got {goals.shape}"
        )
    rng = np.random.default_rng(seed)
    health = RunHealth()
    counter = _CountedObjectives(problem, health)
    algorithm = "goal_attainment_improved"

    def save(stage_count, start_index, tighten_index, starts, ranges,
             weights, best, history):
        if checkpoint_store is None:
            return
        _save_checkpoint(checkpoint_store, algorithm, stage_count, rng,
                         health, {
                             "start_index": start_index,
                             "tighten_index": tighten_index,
                             "starts": [np.array(s) for s in starts],
                             "ranges": np.array(ranges),
                             "weights": np.array(weights),
                             "best": best,
                             "history": list(history),
                             "counter": counter.state(),
                         }, on_generation=on_generation)

    def emit(stage, generation, gamma, violation, wall_time_s,
             mean=None, spread=0.0):
        if on_generation is None:
            return
        on_generation(GenerationRecord(
            algorithm=algorithm,
            generation=int(generation),
            nfev=counter.nfev,
            best=float(gamma),
            mean=float(gamma if mean is None else mean),
            spread=float(spread),
            wall_time_s=float(wall_time_s),
            n_failures=health.n_failures,
            violation=float(violation),
            extra={"stage": stage},
        ))

    checkpoint = resume_or_none(checkpoint_store, algorithm) \
        if resume else None
    if checkpoint is not None:
        payload = checkpoint.payload
        rng.bit_generator.state = checkpoint.rng_state
        health.restore(payload["health"])
        health.resumed_at = int(checkpoint.iteration)
        counter.restore(payload["counter"])
        _restore_telemetry(on_generation, payload)
        starts = [np.asarray(s, dtype=float) for s in payload["starts"]]
        ranges = np.asarray(payload["ranges"], dtype=float)
        weights = np.asarray(payload["weights"], dtype=float)
        best = payload["best"]
        history = list(payload["history"])
        start_index = int(payload["start_index"])
        tighten_index = int(payload["tighten_index"])
    else:
        # --- stage 1: probe the objective ranges on an LHS sample -------
        probe_start = time.monotonic()
        probes = latin_hypercube(n_probe, problem.lower, problem.upper,
                                 rng)
        probes = _seed_population(probes, initial_population,
                                  problem.lower, problem.upper)
        with _obs_tracer.span("goal_attainment.probe", n_probe=n_probe):
            probe_values, probe_g = counter.batch(probes)
        feas = np.all(probe_g <= 0.0, axis=1)
        # Failed probes would inflate the ranges (and hence the
        # auto-scaled weights) by the penalty magnitude; scale from the
        # healthy probes only.
        bad = np.any(probe_values == PENALTY_OBJECTIVE, axis=1)
        healthy = probe_values[~bad] if np.any(~bad) else probe_values
        ranges = np.maximum(
            healthy.max(axis=0) - healthy.min(axis=0), 1e-9
        )
        if weights is None:
            weights = ranges.copy()
        weights = np.asarray(weights, dtype=float)

        # --- stage 2 setup: order the starts by probe attainment --------
        attainment = np.max((probe_values - goals) / weights, axis=1)
        attainment = np.where(feas, attainment, attainment + 1e6)
        # Every probe, best first: the first ``n_starts`` are the
        # planned starts, the rest are reserves for an infeasible
        # incumbent.
        starts = [probes[i] for i in np.argsort(attainment)]
        best = None
        history = []
        start_index = 0
        tighten_index = 0
        finite_attainment = attainment[np.isfinite(attainment)]
        if finite_attainment.size:
            emit("probe", 0, float(np.min(finite_attainment)),
                 float("nan"), time.monotonic() - probe_start,
                 mean=float(np.mean(finite_attainment)),
                 spread=float(np.ptp(finite_attainment)))
        else:
            emit("probe", 0, float("inf"), float("nan"),
                 time.monotonic() - probe_start, mean=float("inf"))
        save(0, start_index, tighten_index, starts, ranges, weights,
             best, history)

    # --- stage 2: multi-start from the best probes -----------------------
    # At least ``n_starts`` starts; past them, keep starting from the
    # next-ranked probe while the incumbent is infeasible.
    k = start_index
    while k < len(starts) and (k < n_starts or (
            best is not None and best.constraint_violation > 1e-6)):
        stage_start = time.monotonic()
        with _obs_tracer.span("goal_attainment.nlp_start", start=k):
            x_final, gamma, success, message = _solve_gembicki_nlp(
                problem, goals, weights, starts[k], counter, max_iterations
            )
        candidate = _package(counter, x_final, goals, weights, success,
                             message, history=[])
        history.append(candidate.gamma)
        if _better(candidate, best):
            best = candidate
        emit("nlp_start", k + 1, best.gamma, best.constraint_violation,
             time.monotonic() - stage_start)
        save(k + 1, k + 1, tighten_index, starts, ranges, weights,
             best, history)
        k += 1
    n_run = k

    if best is None:  # pragma: no cover - n_starts >= 1 always yields one
        raise RuntimeError("no goal-attainment start succeeded")

    # --- stage 3: goal tightening onto the Pareto surface ----------------
    for round_index in range(tighten_index, tighten_rounds):
        if best.constraint_violation > 1e-6:
            break
        stage_start = time.monotonic()
        current_goals = best.objectives - tighten_fraction * ranges
        with _obs_tracer.span("goal_attainment.tighten",
                              round=round_index):
            x_final, gamma, success, message = _solve_gembicki_nlp(
                problem, current_goals, weights, best.x, counter,
                max_iterations
            )
        candidate = _package(counter, x_final, current_goals, weights,
                             success, message, history=[])
        history.append(candidate.gamma)
        if not candidate.success or candidate.constraint_violation > 1e-6:
            break
        if np.all(candidate.objectives <= best.objectives + 1e-12):
            best = candidate
            emit("tighten", n_run + round_index + 1, best.gamma,
                 best.constraint_violation,
                 time.monotonic() - stage_start)
            save(n_run + round_index + 1, n_run, round_index + 1, starts,
                 ranges, weights, best, history)
        else:
            break

    # Report gamma against the *original* goals for comparability.
    final = _package(counter, best.x, goals, weights, best.success,
                     best.message, history)
    if checkpoint_store is not None:
        checkpoint_store.clear()
    # The NLP starts run plus the winning design are this algorithm's
    # best warm-start seeds; gammas approximate the fitness ordering.
    seeds = np.vstack([np.asarray(final.x, dtype=float)[None, :]]
                      + [np.asarray(s, dtype=float)[None, :]
                         for s in starts[:n_run]])
    gammas = [float(final.gamma)] + [float(g) for g in history[:n_run]]
    _emit_final_population(algorithm, seeds, gammas)
    return final


def _better(candidate: GoalAttainmentResult,
            incumbent: Optional[GoalAttainmentResult]) -> bool:
    if incumbent is None:
        return True
    cand_key = (candidate.constraint_violation > 1e-6, candidate.gamma)
    inc_key = (incumbent.constraint_violation > 1e-6, incumbent.gamma)
    return cand_key < inc_key
