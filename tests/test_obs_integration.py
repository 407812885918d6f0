"""Observability wired through the optimization runtime.

Three integration contracts:

* every population optimizer emits a contiguous per-generation
  telemetry trace, and the trace survives a kill/resume cycle
  identically to an uninterrupted run (wall clock excepted);
* RunHealth/metrics counters agree between the in-process and the
  thread-sharded evaluation paths;
* a traced ``goal_attainment_improved`` run produces a well-formed
  span tree (the tier-1 smoke test backing the CI artifact job).
"""

import numpy as np
import pytest

from repro.obs import Metrics, TelemetryRecorder, Tracer, set_tracer
from repro.optimize import (
    FaultInjector,
    MemoryCheckpointStore,
    differential_evolution,
    nsga2,
    particle_swarm,
)
from repro.optimize.batching import PopulationEvaluator
from repro.optimize.faults import CATEGORY_SINGULAR
from repro.optimize.goal_attainment import goal_attainment_improved
from toy_problems import pointwise_problem


def rosenbrock(x):
    x = np.asarray(x, dtype=float)
    return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2
                        + (1.0 - x[:-1]) ** 2))


def _biobjective(x):
    x = np.asarray(x, dtype=float)
    return np.array([float(np.sum(x ** 2)),
                     float(np.sum((x - 1.0) ** 2))])


def _problem(fn=_biobjective):
    return pointwise_problem(
        objectives=fn, n_objectives=2,
        lower=np.zeros(2), upper=np.ones(2),
    )


class KillAfter:
    """Objective wrapper that interrupts the run after n calls."""

    def __init__(self, objective, n_calls):
        self._objective = objective
        self._remaining = int(n_calls)

    def __call__(self, x):
        self._remaining -= 1
        if self._remaining < 0:
            raise KeyboardInterrupt("simulated kill")
        return self._objective(x)


def _trace_key(recorder):
    """The telemetry trace minus wall-clock (which legitimately varies)."""
    return [
        (r.algorithm, r.generation, r.nfev, r.best, r.mean, r.spread,
         r.n_failures, tuple(sorted(r.extra.items())))
        for r in recorder.records
    ]


# ----------------------------------------------------------------------
# per-generation telemetry
# ----------------------------------------------------------------------

class TestOptimizerTelemetry:
    def test_de_emits_contiguous_trace(self):
        recorder = TelemetryRecorder()
        result = differential_evolution(
            rosenbrock, -2 * np.ones(2), 2 * np.ones(2),
            population_size=10, max_iterations=15, seed=11,
            on_generation=recorder,
        )
        assert recorder.is_contiguous()
        assert recorder.generations()[0] == 0
        # One record per completed generation, plus the init record.
        assert len(recorder) == result.n_iterations + 1
        # DE is elitist: the per-generation best never regresses.
        bests = [r.best for r in recorder.records]
        assert all(b <= a + 1e-12 for a, b in zip(bests, bests[1:]))
        assert recorder.records[-1].best == pytest.approx(result.fun)
        nfevs = [r.nfev for r in recorder.records]
        assert nfevs == sorted(nfevs)
        assert nfevs[-1] == result.nfev
        assert all(r.wall_time_s >= 0.0 for r in recorder.records)

    def test_pso_emits_contiguous_trace(self):
        recorder = TelemetryRecorder()
        result = particle_swarm(
            rosenbrock, -2 * np.ones(2), 2 * np.ones(2),
            n_particles=8, max_iterations=12, seed=7,
            on_generation=recorder,
        )
        assert recorder.is_contiguous()
        assert len(recorder) == result.n_iterations + 1
        assert recorder.records[0].algorithm == "particle_swarm"

    def test_nsga2_emits_contiguous_trace_with_front_stats(self):
        recorder = TelemetryRecorder()
        result = nsga2(_problem(), population_size=12, n_generations=8,
                       seed=3, on_generation=recorder)
        assert recorder.is_contiguous()
        assert len(recorder) == 9  # generation 0 through 8
        last = recorder.records[-1]
        assert set(last.extra) >= {"min_f0", "min_f1", "n_feasible"}
        assert last.extra["min_f0"] == pytest.approx(
            float(np.min(result.objectives[:, 0]))
        )
        assert last.extra["n_feasible"] == result.objectives.shape[0]
        assert last.violation == 0.0  # unconstrained problem

    def test_goal_attainment_emits_staged_trace(self):
        recorder = TelemetryRecorder()
        result = goal_attainment_improved(
            _problem(), goals=np.array([0.3, 0.3]), n_probe=16,
            n_starts=3, tighten_rounds=1, seed=9,
            on_generation=recorder,
        )
        assert recorder.is_contiguous()
        stages = [r.extra["stage"] for r in recorder.records]
        assert stages[0] == "probe"
        assert stages[1:4] == ["nlp_start"] * 3
        assert set(stages) <= {"probe", "nlp_start", "tighten"}
        assert recorder.records[-1].nfev == result.nfev

    def test_de_telemetry_survives_kill_and_resume(self):
        kwargs = dict(lower=-2 * np.ones(2), upper=2 * np.ones(2),
                      population_size=10, max_iterations=20, seed=17)
        clean = TelemetryRecorder()
        differential_evolution(rosenbrock, on_generation=clean, **kwargs)

        store = MemoryCheckpointStore()
        resumed = TelemetryRecorder()
        killer = KillAfter(rosenbrock, 10 + 10 * 8 + 3)
        with pytest.raises(KeyboardInterrupt):
            differential_evolution(killer, checkpoint_store=store,
                                   checkpoint_every=3,
                                   on_generation=resumed, **kwargs)
        # The interrupted run emitted generations past the last
        # checkpoint; the resume must drop and re-emit them so the
        # final trace has no gap and no duplicate.
        differential_evolution(rosenbrock, checkpoint_store=store,
                               checkpoint_every=3,
                               on_generation=resumed, **kwargs)
        assert resumed.is_contiguous()
        assert _trace_key(resumed) == _trace_key(clean)

    def test_goal_attainment_telemetry_survives_kill_and_resume(self):
        kwargs = dict(goals=np.array([0.3, 0.3]), n_probe=16,
                      n_starts=3, tighten_rounds=1, seed=9)
        clean = TelemetryRecorder()
        goal_attainment_improved(_problem(), on_generation=clean,
                                 **kwargs)

        store = MemoryCheckpointStore()
        resumed = TelemetryRecorder()
        killer = KillAfter(_biobjective, 16 + 40)
        with pytest.raises(KeyboardInterrupt):
            goal_attainment_improved(_problem(killer),
                                     checkpoint_store=store,
                                     on_generation=resumed, **kwargs)
        goal_attainment_improved(_problem(), checkpoint_store=store,
                                 on_generation=resumed, **kwargs)
        assert resumed.is_contiguous()
        assert _trace_key(resumed) == _trace_key(clean)


# ----------------------------------------------------------------------
# health/metrics counter consistency across evaluation paths
# ----------------------------------------------------------------------

def _fail_below(x, threshold=0.3):
    """Deterministic failure, identical on every thread."""
    x = np.asarray(x, dtype=float)
    if x[0] < threshold:
        raise ValueError("synthetic singular matrix")
    return float(np.sum(x ** 2))


def _population(n_fail=4, n_ok=8):
    rng = np.random.default_rng(42)
    rows = [np.array([0.1, rng.random()]) for _ in range(n_fail)]
    rows += [np.array([0.5, rng.random()]) for _ in range(n_ok)]
    return np.stack(rows)


class TestCounterConsistency:
    def test_serial_and_pool_health_identical(self):
        population = _population(n_fail=4, n_ok=8)

        serial = PopulationEvaluator(_fail_below)
        serial_values = serial(population)

        with PopulationEvaluator(_fail_below, workers=2) as pool:  # threads
            pool_values = pool(population)

        np.testing.assert_array_equal(serial_values, pool_values)
        assert serial.health.failures == pool.health.failures
        assert serial.health.n_failures == 4
        assert serial.health.failures == {CATEGORY_SINGULAR: 4}

        # Absorbed into metrics, both paths export the same counters —
        # and absorbing twice does not inflate them.
        for health in (serial.health, pool.health):
            metrics = Metrics()
            metrics.absorb_run_health(health)
            once = metrics.counters()
            metrics.absorb_run_health(health)
            assert metrics.counters() == once
            assert metrics.counter("health.failures.singular") == 4

    def test_fault_injector_counts_match_health(self):
        injector = FaultInjector(rosenbrock, p_raise=0.3, seed=5)
        evaluator = PopulationEvaluator(injector)
        rng = np.random.default_rng(1)
        for _ in range(4):
            evaluator(rng.random((10, 2)))
        assert injector.n_calls == 40
        assert injector.n_raised > 0
        assert evaluator.health.n_failures == injector.n_injected

        metrics = Metrics()
        metrics.absorb_run_health(evaluator.health)
        assert metrics.counter("health.n_failures") == injector.n_injected


# ----------------------------------------------------------------------
# traced run smoke test (backs the CI artifact job)
# ----------------------------------------------------------------------

def test_traced_goal_attainment_span_tree_well_formed():
    tracer = Tracer(enabled=True)
    previous = set_tracer(tracer)
    try:
        goal_attainment_improved(
            _problem(), goals=np.array([0.3, 0.3]), n_probe=16,
            n_starts=2, tighten_rounds=1, seed=9,
        )
    finally:
        set_tracer(previous)

    records = tracer.records
    names = {r.name for r in records}
    assert "goal_attainment.probe" in names
    assert "goal_attainment.nlp_start" in names

    # Well-formed forest: unique ids, every parent id resolvable, and
    # children strictly inside their parents' time window.
    ids = [r.span_id for r in records]
    assert len(ids) == len(set(ids))
    by_id = {r.span_id: r for r in records}
    for record in records:
        if record.parent_id is None:
            continue
        parent = by_id[record.parent_id]
        assert parent.start_s <= record.start_s + 1e-9
        assert (record.start_s + record.duration_s
                <= parent.start_s + parent.duration_s + 1e-9)

    tree = tracer.span_tree()
    assert tree, "expected at least one root span"
    assert tracer.total_time() > 0.0
    # The flamegraph summary renders without error and mentions the
    # probe stage.
    assert "goal_attainment" in tracer.format_spans()
