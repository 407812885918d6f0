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
from typing import Callable, List, Optional, Sequence

import numpy as np
from scipy import optimize as sp_optimize
from scipy.optimize._numdiff import approx_derivative

from repro.obs import tracer as _obs_tracer
from repro.obs.telemetry import GenerationRecord
from repro.optimize.batching import BatchShardExecutor, validate_workers
from repro.optimize.checkpoint import CheckpointStore, resume_or_none
from repro.optimize.faults import (
    CATEGORY_NON_FINITE,
    FAILURE_EXCEPTIONS,
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
    "GoalAttainmentResult",
    "goal_attainment_standard",
    "goal_attainment_improved",
]

#: Finite objective vector assigned to failed evaluations inside the
#: SLSQP solve — ``inf``/``nan`` would break the line search, a large
#: finite value just makes the point maximally unattractive.
PENALTY_OBJECTIVE = 1.0e9

#: SLSQP's default finite-difference step (its ``eps`` option): the
#: absolute step of the forward differences it takes without ``jac=``.
_FD_STEP = np.sqrt(np.finfo(np.float64).eps)


@dataclass
class MultiObjectiveProblem:
    """A box-bounded multi-objective minimization problem.

    ``objectives(x)`` returns the objective vector (all minimized);
    ``constraints(x)``, when given, returns values that must end up
    <= 0 at a feasible point.

    ``objectives_batch`` / ``constraints_batch`` are optional
    population-level companions: given a ``(B, n)`` matrix they return
    ``(B, n_objectives)`` / ``(B, n_constraints)`` arrays matching the
    scalar callables row by row.  Optimizers that evaluate whole
    populations (NSGA-II, the improved goal-attainment probe stage)
    use them when present to amortize the model solve across
    candidates.
    """

    objectives: Callable[[np.ndarray], np.ndarray]
    n_objectives: int
    lower: np.ndarray
    upper: np.ndarray
    constraints: Optional[Callable[[np.ndarray], np.ndarray]] = None
    objective_names: Sequence[str] = ()
    objectives_batch: Optional[Callable[[np.ndarray], np.ndarray]] = None
    constraints_batch: Optional[Callable[[np.ndarray], np.ndarray]] = None

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
        """This problem with its batch callables sharded over *executor*.

        *executor* is a
        :class:`~repro.optimize.batching.BatchShardExecutor`; the
        returned problem routes ``objectives_batch`` /
        ``constraints_batch`` through ``executor.map_batch`` so the
        per-worker row blocks evaluate concurrently (the model's hot
        loop is numpy ``linalg.solve``, which releases the GIL).  Rows
        restack in order, so results stay bit-identical to the
        unsharded call; a problem with no batch callables is returned
        unchanged.  The caller keeps ownership of *executor* and closes
        it when the run is done.
        """
        if self.objectives_batch is None and self.constraints_batch is None:
            return self

        def shard(fn):
            if fn is None:
                return None
            return lambda population: executor.map_batch(fn, population)

        return replace(
            self,
            objectives_batch=shard(self.objectives_batch),
            constraints_batch=shard(self.constraints_batch),
        )


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
    """Memoizing evaluation counter shared by all constraint callbacks.

    Failure-isolated: an evaluation that raises one of
    :data:`FAILURE_EXCEPTIONS` or returns non-finite entries yields the
    finite :data:`PENALTY_OBJECTIVE` vector (recorded in ``health``)
    instead of sinking the surrounding SLSQP solve.
    """

    def __init__(self, problem: MultiObjectiveProblem,
                 health: Optional[RunHealth] = None):
        self._problem = problem
        self.health = health if health is not None else RunHealth()
        self.nfev = 0
        self._last_key = None
        self._last_value = None

    def __call__(self, x: np.ndarray) -> np.ndarray:
        key = x.tobytes()
        if key != self._last_key:
            try:
                value = np.asarray(self._problem.objectives(x), dtype=float)
            except FAILURE_EXCEPTIONS as exc:
                self.health.record(classify_exception(exc))
                value = np.full(self._problem.n_objectives, PENALTY_OBJECTIVE)
            self._accept(key, value)
        return self._last_value

    def batch(self, points: np.ndarray) -> np.ndarray:
        """``[self(x) for x in points]``, evaluated in one batch call.

        Counts, memoizes and records failures exactly as the calls one
        at a time would: a row is a fresh evaluation when it differs
        from the row before it (the memo, for the first row), so a
        point that recurs after another counts again.  The distinct
        fresh rows go to ``problem.objectives_batch`` at once; without
        one, or when the batch call raises one of
        :data:`FAILURE_EXCEPTIONS`, the rows are evaluated one by one.
        """
        points = np.asarray(points, dtype=float)
        keys = [x.tobytes() for x in points]
        fresh = {}
        previous = self._last_key
        for key, x in zip(keys, points):
            if key != previous:
                fresh.setdefault(key, x)
            previous = key
        values = None
        if fresh and self._problem.objectives_batch is not None:
            try:
                values = np.asarray(self._problem.objectives_batch(
                    np.array(list(fresh.values()))), dtype=float)
            except FAILURE_EXCEPTIONS:
                pass
        if values is None:
            return np.array([self(x) for x in points])
        if len(values) != len(fresh):
            raise ValueError(
                f"objectives_batch returned {len(values)} rows for "
                f"{len(fresh)} points"
            )
        by_key = dict(zip(fresh, values))
        out = np.empty((len(points), self._problem.n_objectives))
        for i, key in enumerate(keys):
            if key != self._last_key:
                self._accept(key, by_key[key])
            out[i] = self._last_value
        return out

    def _accept(self, key: bytes, value) -> None:
        """Count one fresh evaluation and memoize its (checked) value."""
        n_obj = self._problem.n_objectives
        value = np.asarray(value, dtype=float)
        if value.shape != (n_obj,):
            raise ValueError(
                f"objectives returned shape {value.shape}, "
                f"expected ({n_obj},)"
            )
        bad = ~np.isfinite(value)
        if np.any(bad):
            self.health.record(CATEGORY_NON_FINITE)
            value = np.where(bad, PENALTY_OBJECTIVE, value)
        self._last_value = value
        self._last_key = key
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


class _Stencil:
    """The points of one forward-difference Jacobian, as SLSQP takes it.

    Without ``jac=``, SLSQP differentiates each constraint block with
    ``approx_derivative(fun, x, method="2-point", abs_step=eps,
    bounds=...)`` and calls ``fun`` once per point.  A stencil runs
    that same call with a recording ``fun`` to learn the points —
    ``x`` first, then one step per coordinate, flipped at the bounds —
    so a caller can evaluate them in one batch; :meth:`jacobian` runs
    it again on the batch's values, so the differences and divisions
    are scipy's own and the Jacobian is bit-identical.
    """

    def __init__(self, x: np.ndarray, bounds):
        self.x = x
        self.bounds = bounds
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


def _constraint_rows(problem: MultiObjectiveProblem,
                     points: np.ndarray) -> np.ndarray:
    """``problem.constraints`` on every row of *points*, in one
    ``constraints_batch`` call when the problem has one."""
    if problem.constraints_batch is not None:
        return np.asarray(problem.constraints_batch(points), dtype=float)
    return np.array([np.asarray(problem.constraints(x), dtype=float)
                     for x in points])


def _solve_gembicki_nlp(problem: MultiObjectiveProblem, goals, weights,
                        x0, counter: _CountedObjectives,
                        max_iterations: int = 200):
    """One SLSQP solve of the Gembicki reformulation from x0.

    Both constraint blocks carry a ``jac`` that evaluates SLSQP's own
    finite-difference stencil as one batch (:class:`_Stencil`): the
    attainment block through :meth:`_CountedObjectives.batch`, the
    spec block through ``constraints_batch`` on the same rows, which an
    evaluator cache serves.  The trajectory is the one SLSQP takes
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
        values = counter.batch(stencil.points[:, :n_x])
        return stencil.jacobian(
            [attainment(p, f) for p, f in zip(stencil.points, values)]
        )

    constraint_list = [
        {"type": "ineq", "fun": attainment_constraints,
         "jac": attainment_jacobian},
    ]
    if problem.constraints is not None:
        def spec_jacobian(y):
            stencil = stencil_at(y)
            return stencil.jacobian(
                -_constraint_rows(problem, stencil.points[:, :n_x])
            )

        constraint_list.append(
            {"type": "ineq",
             "fun": lambda y: -np.asarray(
                 problem.constraints(y[:n_x]), dtype=float
             ),
             "jac": spec_jacobian}
        )

    f0 = counter(np.asarray(x0, dtype=float))
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


def _package(problem, counter, x, goals, weights, success, message,
             history) -> GoalAttainmentResult:
    f = counter(x)
    gamma = float(np.max((f - goals) / weights))
    violation = 0.0
    if problem.constraints is not None:
        violation = float(
            np.max(np.maximum(problem.constraints(x), 0.0), initial=0.0)
        )
    return GoalAttainmentResult(
        x=np.asarray(x, dtype=float), objectives=f, gamma=gamma,
        goals=np.asarray(goals, dtype=float),
        weights=np.asarray(weights, dtype=float), nfev=counter.nfev,
        success=success, constraint_violation=violation, message=message,
        history=history, health=counter.health,
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
    return _package(problem, counter, x_final, goals, weights, success,
                    message, history=[gamma])


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
            probe_values = counter.batch(probes)
        if problem.constraints is not None:
            if problem.constraints_batch is not None:
                feas = np.all(
                    np.asarray(problem.constraints_batch(probes)) <= 0.0,
                    axis=1,
                )
            else:
                feas = np.array([
                    np.all(np.asarray(problem.constraints(p)) <= 0.0)
                    for p in probes
                ])
        else:
            feas = np.ones(len(probes), dtype=bool)
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
        candidate = _package(problem, counter, x_final, goals, weights,
                             success, message, history=[])
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
        candidate = _package(problem, counter, x_final, current_goals,
                             weights, success, message, history=[])
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
    final = _package(problem, counter, best.x, goals, weights,
                     best.success, best.message, history)
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
