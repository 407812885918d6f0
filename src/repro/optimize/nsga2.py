"""NSGA-II: population-based multi-objective baseline.

The paper's contribution is a *point* method (improved goal
attainment); NSGA-II (Deb et al., 2002) is the standard *front* method
and serves two roles here:

* an independent generator of the NF/GT Pareto front, cross-checking
  the goal-attainment sweep of experiment E6;
* a cost comparison — one NSGA-II run prices the entire front, while
  goal attainment prices one point per solve.

Implementation: non-dominated sorting peeled off one boolean
constraint-domination matrix per sort (Deb's rule: feasible beats
infeasible, the smaller violation wins between infeasible designs,
Pareto dominance between feasible ones), crowding distance,
binary-tournament selection, simulated binary crossover (SBX) and
polynomial mutation, all from scratch and deterministic under a seed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

from repro.guards import contracts as _contracts
from repro.obs.telemetry import GenerationRecord, population_stats
from repro.optimize.checkpoint import (
    CheckpointError,
    CheckpointStore,
    resume_or_none,
)
from repro.optimize.faults import (
    CATEGORY_NON_FINITE,
    RunHealth,
    classify_exception,
)
from repro.optimize.batching import BatchShardExecutor, validate_workers
from repro.optimize.goal_attainment import MultiObjectiveProblem
from repro.optimize.metaheuristics import (
    _emit_final_population,
    _emit_generation,
    _restore_telemetry,
    _save_checkpoint,
    _seed_population,
    latin_hypercube,
)
from repro.optimize.pareto import dominance_matrix

__all__ = ["Nsga2Result", "nsga2"]

#: Finite objective/violation assigned to failed candidates.  NSGA-II's
#: crowding distance normalizes by the objective spread, so ``inf``
#: would poison the whole front — a large finite figure keeps failed
#: candidates strictly dominated instead.
PENALTY_OBJECTIVE = 1.0e9


@dataclass
class Nsga2Result:
    """Final non-dominated set of an NSGA-II run."""

    x: np.ndarray            # (m, dim) decision vectors of the front
    objectives: np.ndarray   # (m, n_obj)
    violations: np.ndarray   # (m,) max constraint violation (0 = feasible)
    nfev: int
    n_generations: int
    health: RunHealth = field(default_factory=RunHealth)

    def __post_init__(self):
        # Reported-front trust boundary: finite designs, no NaN scores.
        _contracts.check_pareto_front(self.x, self.objectives,
                                      "Nsga2Result")

    @property
    def feasible_front(self) -> np.ndarray:
        """Objectives of the feasible non-dominated solutions."""
        return self.objectives[self.violations <= 1e-9]


def _emit_nsga2_generation(on_generation, generation: int, nfev: int,
                           objectives: np.ndarray, violations: np.ndarray,
                           health: RunHealth, wall_time_s: float):
    """One telemetry record per NSGA-II generation.

    ``best``/``mean``/``spread`` summarize the first objective (for the
    LNA problem: NFmax); per-objective minima and the feasible count
    ride in ``extra`` so the record still describes the whole front.
    """
    if on_generation is None:
        return
    best, mean, spread = population_stats(objectives[:, 0])
    extra = {
        f"min_f{k}": float(np.min(objectives[:, k]))
        for k in range(objectives.shape[1])
    }
    extra["n_feasible"] = int(np.sum(violations <= 1e-9))
    on_generation(GenerationRecord(
        algorithm="nsga2",
        generation=generation,
        nfev=int(nfev),
        best=best,
        mean=mean,
        spread=spread,
        wall_time_s=float(wall_time_s),
        n_failures=health.n_failures,
        violation=float(np.min(violations)),
        extra=extra,
    ))


def nsga2(
    problem: MultiObjectiveProblem,
    population_size: int = 40,
    n_generations: int = 50,
    crossover_probability: float = 0.9,
    crossover_eta: float = 15.0,
    mutation_eta: float = 20.0,
    seed: Optional[int] = 0,
    initial_population: Optional[np.ndarray] = None,
    workers: Optional[int] = None,
    checkpoint_store: Optional[CheckpointStore] = None,
    checkpoint_every: int = 10,
    resume: bool = True,
    on_generation: Optional[Callable[[GenerationRecord], None]] = None,
) -> Nsga2Result:
    """Run NSGA-II on *problem* and return the final first front.

    ``initial_population`` warm-starts the run: its rows (clipped to
    the box) replace the leading rows of the LHS initialization —
    typically a nearby archived run's final population found through
    :func:`repro.obs.analytics.warm_start_population`.  The finished
    run journals its own final population (with the first objective as
    the fitness ordering) for the next warm start.

    ``workers > 1`` shards the problem's batch callables across a
    thread pool (:meth:`MultiObjectiveProblem.sharded`): the model's
    hot loop releases the GIL, the row order is preserved, and the
    per-row results — and hence the whole run — stay bit-identical to
    the single-threaded evaluation.  A problem without batch callables
    ignores ``workers``.

    With a ``checkpoint_store`` the complete generation state
    (population, objectives, violations, RNG state, health counters)
    is persisted every ``checkpoint_every`` generations; a rerun with
    the same store resumes from the last snapshot and finishes
    bit-for-bit identical to an uninterrupted run.

    ``on_generation`` receives one
    :class:`~repro.obs.telemetry.GenerationRecord` per generation
    (including generation 0) and rides inside checkpoints when it
    exposes ``state()``/``restore()``, like the single-objective
    optimizers.
    """
    if population_size % 2:
        population_size += 1  # pairing requires an even population
    rng = np.random.default_rng(seed)
    dim = problem.lower.size
    health = RunHealth()
    algorithm = "nsga2"

    executor = None
    workers = validate_workers(workers)
    if workers is not None and workers > 1:
        executor = BatchShardExecutor(workers)
        problem = problem.sharded(executor)
    try:
        return _nsga2_run(
            problem, population_size, n_generations,
            crossover_probability, crossover_eta, mutation_eta, rng,
            health, algorithm, checkpoint_store, checkpoint_every,
            resume, on_generation, initial_population,
        )
    finally:
        if executor is not None:
            executor.close()


def _nsga2_run(problem, population_size, n_generations,
               crossover_probability, crossover_eta, mutation_eta, rng,
               health, algorithm, checkpoint_store, checkpoint_every,
               resume, on_generation,
               initial_population=None) -> Nsga2Result:
    dim = problem.lower.size
    checkpoint = resume_or_none(checkpoint_store, algorithm) \
        if resume else None
    if checkpoint is not None:
        payload = checkpoint.payload
        population = np.array(payload["population"], dtype=float)
        if population.shape != (population_size, dim):
            raise CheckpointError(
                f"checkpoint population has shape {population.shape}, "
                f"expected {(population_size, dim)} — was the run "
                f"configured differently?"
            )
        objectives = np.array(payload["objectives"], dtype=float)
        violations = np.array(payload["violations"], dtype=float)
        nfev = int(payload["nfev"])
        health.restore(payload["health"])
        _restore_telemetry(on_generation, payload)
        rng.bit_generator.state = checkpoint.rng_state
        start_generation = int(checkpoint.iteration)
        health.resumed_at = start_generation
    else:
        init_start = time.monotonic()
        population = latin_hypercube(population_size, problem.lower,
                                     problem.upper, rng)
        population = _seed_population(population, initial_population,
                                      problem.lower, problem.upper)
        objectives, violations = _evaluate(problem, population, health)
        nfev = population_size
        start_generation = 0
        _emit_nsga2_generation(on_generation, 0, nfev, objectives,
                               violations, health,
                               time.monotonic() - init_start)

    for generation in range(start_generation + 1, n_generations + 1):
        generation_start = time.monotonic()
        parents = _tournament(population, objectives, violations, rng)
        children = _sbx_crossover(parents, problem.lower, problem.upper,
                                  crossover_probability, crossover_eta, rng)
        children = _polynomial_mutation(children, problem.lower,
                                        problem.upper, mutation_eta, rng)
        child_objectives, child_violations = _evaluate(problem, children,
                                                       health)
        nfev += len(children)

        population = np.vstack([population, children])
        objectives = np.vstack([objectives, child_objectives])
        violations = np.concatenate([violations, child_violations])
        keep = _environmental_selection(objectives, violations,
                                        population_size)
        population = population[keep]
        objectives = objectives[keep]
        violations = violations[keep]
        _emit_nsga2_generation(on_generation, generation, nfev, objectives,
                               violations, health,
                               time.monotonic() - generation_start)

        if (checkpoint_store is not None
                and generation % max(int(checkpoint_every), 1) == 0
                and generation < n_generations):
            _save_checkpoint(checkpoint_store, algorithm, generation, rng,
                             health, {
                                 "population": population.copy(),
                                 "objectives": objectives.copy(),
                                 "violations": violations.copy(),
                                 "nfev": nfev,
                             }, on_generation=on_generation)

    fronts = _nondominated_sort(objectives, violations)
    first = np.asarray(fronts[0], dtype=int)
    if checkpoint_store is not None:
        checkpoint_store.clear()
    _emit_final_population(algorithm, population, objectives[:, 0])
    return Nsga2Result(
        x=population[first],
        objectives=objectives[first],
        violations=violations[first],
        nfev=nfev,
        n_generations=n_generations,
        health=health,
    )


# ----------------------------------------------------------------------
# building blocks
# ----------------------------------------------------------------------

def _evaluate(problem, population, health=None):
    if health is None:
        health = RunHealth()
    n = len(population)

    objectives = None
    if getattr(problem, "objectives_batch", None) is not None:
        # Population-level evaluation: one batched model solve for the
        # whole generation (value-identical to the per-individual loop).
        try:
            objectives = np.asarray(problem.objectives_batch(population),
                                    dtype=float)
            if objectives.shape[0] != n:
                raise ValueError(
                    f"objectives_batch returned {objectives.shape[0]} "
                    f"rows for a population of {n}"
                )
        except Exception:  # noqa: BLE001 - degrade to the scalar loop
            health.retries += 1
            objectives = None
    if objectives is None:
        objectives = np.empty((n, problem.n_objectives), dtype=float)
        for i, x in enumerate(population):
            try:
                objectives[i] = np.asarray(problem.objectives(x),
                                           dtype=float)
            except Exception as exc:  # noqa: BLE001 - absorb per candidate
                health.record(classify_exception(exc))
                objectives[i] = PENALTY_OBJECTIVE
    bad = ~np.all(np.isfinite(objectives), axis=1)
    if np.any(bad):
        # Finite penalty, not inf: crowding distances must stay finite.
        health.record(CATEGORY_NON_FINITE, int(np.sum(bad)))
        objectives[bad] = PENALTY_OBJECTIVE

    if problem.constraints is None:
        violations = np.zeros(n)
        violations[bad] = PENALTY_OBJECTIVE  # failed => never "feasible"
        return objectives, violations

    g = None
    if getattr(problem, "constraints_batch", None) is not None:
        try:
            g = np.asarray(problem.constraints_batch(population),
                           dtype=float)
            if g.shape[0] != n:
                raise ValueError(
                    f"constraints_batch returned {g.shape[0]} rows "
                    f"for a population of {n}"
                )
        except Exception:  # noqa: BLE001 - degrade to the scalar loop
            health.retries += 1
            g = None
    if g is None:
        rows: List[Optional[np.ndarray]] = []
        for x in population:
            try:
                rows.append(np.asarray(problem.constraints(x),
                                       dtype=float).reshape(-1))
            except Exception:  # noqa: BLE001 - absorb per candidate
                # The objective pass is the canonical failure counter;
                # a failed constraint row just forfeits feasibility.
                rows.append(None)
        width = max((r.size for r in rows if r is not None), default=1)
        g = np.full((n, width), PENALTY_OBJECTIVE, dtype=float)
        for i, r in enumerate(rows):
            if r is not None:
                g[i] = r
    g = np.where(np.isfinite(g), g, PENALTY_OBJECTIVE)
    violations = np.max(np.maximum(g, 0.0), axis=1, initial=0.0)
    violations[bad] = np.maximum(violations[bad], PENALTY_OBJECTIVE)
    return objectives, violations


def _constrained_dominance(objectives, violations) -> np.ndarray:
    """``(n, n)`` matrix, ``[i, j]`` = *i* beats *j* under Deb's rule.

    A feasible design (violation <= 1e-12) beats an infeasible one,
    the smaller violation wins between two infeasible designs, and two
    feasible designs compare by Pareto dominance.
    """
    v = np.asarray(violations, dtype=float)
    vi, vj = v[:, None], v[None, :]
    feasible_i, feasible_j = vi <= 1e-12, vj <= 1e-12
    infeasible_i, infeasible_j = vi > 1e-12, vj > 1e-12
    return np.select(
        [feasible_i & infeasible_j, infeasible_i & feasible_j,
         infeasible_i & infeasible_j],
        [True, False, vi < vj],
        default=dominance_matrix(objectives),
    )


def _nondominated_sort(objectives, violations) -> List[List[int]]:
    """Fronts of row indices, best first.

    Front order is Deb's fast sort's: the first front ascends, and a
    later front lists its members by the position of their last
    dominator in the front before, then by index.  Environmental
    selection keeps rows in this order and crowding ties resolve by it,
    so any other order changes the run.
    """
    beats = _constrained_dominance(objectives, violations)
    count = beats.sum(axis=0)
    front = np.flatnonzero(count == 0)
    fronts: List[List[int]] = []
    while front.size:
        fronts.append(front.tolist())
        beaten = beats[front]
        count -= beaten.sum(axis=0)
        freed = np.flatnonzero((count == 0) & beaten.any(axis=0))
        # Position in this front of each freed row's last dominator.
        last = len(front) - 1 - np.argmax(beaten[::-1, freed], axis=0)
        front = freed[np.lexsort((freed, last))]
    return fronts


def _crowding_distance(front_objectives) -> np.ndarray:
    m, n_obj = front_objectives.shape
    distance = np.zeros(m)
    if m <= 2:
        return np.full(m, np.inf)
    for k in range(n_obj):
        order = np.argsort(front_objectives[:, k])
        values = front_objectives[order, k]
        spread = values[-1] - values[0]
        distance[order[0]] = np.inf
        distance[order[-1]] = np.inf
        if spread <= 0:
            continue
        distance[order[1:-1]] += (values[2:] - values[:-2]) / spread
    return distance


def _environmental_selection(objectives, violations, target_size):
    fronts = _nondominated_sort(objectives, violations)
    keep: List[int] = []
    for front in fronts:
        if len(keep) + len(front) <= target_size:
            keep.extend(front)
            continue
        remaining = target_size - len(keep)
        front_arr = np.asarray(front, dtype=int)
        crowding = _crowding_distance(objectives[front_arr])
        order = np.argsort(-crowding)
        keep.extend(front_arr[order[:remaining]].tolist())
        break
    return np.asarray(keep, dtype=int)


def _tournament(population, objectives, violations, rng):
    n = len(population)
    fronts = _nondominated_sort(objectives, violations)
    rank = np.empty(n, dtype=int)
    for level, front in enumerate(fronts):
        rank[np.asarray(front, dtype=int)] = level
    crowding = np.zeros(n)
    for front in fronts:
        front_arr = np.asarray(front, dtype=int)
        crowding[front_arr] = _crowding_distance(objectives[front_arr])

    winners = np.empty((n, population.shape[1]))
    for slot in range(n):
        a, b = rng.integers(n, size=2)
        if rank[a] < rank[b] or (
            rank[a] == rank[b] and crowding[a] > crowding[b]
        ):
            winners[slot] = population[a]
        else:
            winners[slot] = population[b]
    return winners


def _sbx_crossover(parents, lower, upper, probability, eta, rng):
    children = parents.copy()
    n, dim = parents.shape
    for i in range(0, n - 1, 2):
        if rng.random() > probability:
            continue
        u = rng.random(dim)
        beta = np.where(
            u <= 0.5,
            (2.0 * u) ** (1.0 / (eta + 1.0)),
            (1.0 / (2.0 * (1.0 - u))) ** (1.0 / (eta + 1.0)),
        )
        parent_a, parent_b = parents[i], parents[i + 1]
        children[i] = 0.5 * ((1 + beta) * parent_a + (1 - beta) * parent_b)
        children[i + 1] = 0.5 * ((1 - beta) * parent_a + (1 + beta) * parent_b)
    return np.clip(children, lower, upper)


def _polynomial_mutation(children, lower, upper, eta, rng):
    n, dim = children.shape
    span = upper - lower
    probability = 1.0 / dim
    mask = rng.random((n, dim)) < probability
    u = rng.random((n, dim))
    delta = np.where(
        u < 0.5,
        (2.0 * u) ** (1.0 / (eta + 1.0)) - 1.0,
        1.0 - (2.0 * (1.0 - u)) ** (1.0 / (eta + 1.0)),
    )
    mutated = children + mask * delta * span
    return np.clip(mutated, lower, upper)
