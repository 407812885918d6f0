"""The compiled evaluation engine against the scalar reference path.

The batched engine's contract is strict equivalence: for any design
vector, :class:`~repro.core.engine.CompiledTemplate` must reproduce
``AmplifierTemplate.evaluate`` to well under 1e-8 on every figure of
merit, and the batch objective protocol must not change optimizer
results beyond that roundoff.
"""

import sys
import threading
from collections import OrderedDict

import numpy as np
import pytest

from repro.core.amplifier import AmplifierTemplate, DesignVariables
from repro.core.engine import CompiledTemplate
from repro.core.objectives import LnaEvaluator, build_lna_problem
from repro.experiments.common import reference_device, selected_design
from repro.optimize.batching import PopulationEvaluator
from repro.optimize.goal_attainment import (
    MultiObjectiveProblem,
    goal_attainment_improved,
)
from repro.optimize.metaheuristics import (
    differential_evolution,
    particle_swarm,
)
from repro.optimize.nsga2 import nsga2
from toy_problems import pointwise_problem


@pytest.fixture(scope="module")
def template():
    return AmplifierTemplate(reference_device().small_signal)


@pytest.fixture(scope="module")
def engine(template):
    return CompiledTemplate(template)


class _InterleavingCache(OrderedDict):
    """An LRU store that runs ``intruder`` on a second thread inside its
    next ``get`` and waits (briefly) for it, so the intruder lands
    between the evaluator's ``get`` and ``move_to_end`` unless a lock
    holds it off."""

    intruder = None

    def get(self, key, default=None):
        value = super().get(key, default)
        intruder, self.intruder = self.intruder, None
        if intruder is not None:
            self.thread = threading.Thread(target=intruder)
            self.thread.start()
            self.thread.join(timeout=0.5)
        return value


def _assert_matches_scalar(engine, template, unit_x, tolerance=1e-8):
    perf_c = engine.performance(unit_x)
    perf_s = template.evaluate(DesignVariables.from_unit(unit_x),
                               engine.band_grid, engine.guard_grid)
    np.testing.assert_allclose(perf_c.nf_db, perf_s.nf_db, atol=tolerance)
    np.testing.assert_allclose(perf_c.gt_db, perf_s.gt_db, atol=tolerance)
    np.testing.assert_allclose(perf_c.s11_db, perf_s.s11_db, atol=tolerance)
    np.testing.assert_allclose(perf_c.s22_db, perf_s.s22_db, atol=tolerance)
    assert perf_c.mu_min == pytest.approx(perf_s.mu_min, abs=tolerance)
    assert perf_c.ids == pytest.approx(perf_s.ids, abs=tolerance)
    assert perf_c.nf_max_db == pytest.approx(perf_s.nf_max_db,
                                             abs=tolerance)
    assert perf_c.gt_min_db == pytest.approx(perf_s.gt_min_db,
                                             abs=tolerance)


class TestCompiledTemplate:
    def test_matches_scalar_on_random_designs(self, engine, template):
        rng = np.random.default_rng(42)
        for unit_x in rng.random((5, len(DesignVariables.NAMES))):
            _assert_matches_scalar(engine, template, unit_x)

    def test_matches_scalar_on_selected_design(self, engine, template):
        design = selected_design("fast")
        _assert_matches_scalar(engine, template,
                               design.optimizer_result.x)

    def test_batch_rows_match_single_calls(self, engine):
        rng = np.random.default_rng(7)
        unit_x = rng.random((6, len(DesignVariables.NAMES)))
        batch = engine.performance_batch(unit_x)
        assert len(batch) == 6
        for i in range(6):
            single = engine.performance(unit_x[i])
            np.testing.assert_allclose(batch.nf_db[i], single.nf_db,
                                       atol=1e-12)
            np.testing.assert_allclose(batch.gt_db[i], single.gt_db,
                                       atol=1e-12)
            assert batch.mu_min[i] == pytest.approx(single.mu_min,
                                                    abs=1e-12)


class TestLnaEvaluatorCache:
    def test_repeat_calls_hit_the_cache(self, template):
        evaluator = LnaEvaluator(template)
        x = np.full(len(DesignVariables.NAMES), 0.4)
        evaluator.performance(x)
        assert evaluator.n_solves == 1
        assert evaluator.cache_hits == 0
        evaluator.performance(x)
        evaluator.performance(x.copy())
        assert evaluator.n_solves == 1
        assert evaluator.cache_hits == 2

    def test_batch_deduplicates_and_counts_hits(self, template):
        evaluator = LnaEvaluator(template)
        rng = np.random.default_rng(5)
        unique = rng.random((3, len(DesignVariables.NAMES)))
        batch = np.vstack([unique, unique[0], unique[2]])
        perfs = evaluator.performance_batch(batch)
        assert len(perfs) == 5
        assert evaluator.n_solves == 3          # duplicates solved once
        assert evaluator.cache_hits == 0        # nothing was cached before
        perfs_again = evaluator.performance_batch(unique)
        assert evaluator.n_solves == 3
        assert evaluator.cache_hits == 3
        for a, b in zip(perfs[:3], perfs_again):
            assert a is b                        # served from the LRU store

    def test_scalar_engine_agrees_with_compiled(self, template):
        evaluator = LnaEvaluator(template)
        x = np.full(len(DesignVariables.NAMES), 0.55)
        pc = evaluator.performance(x)
        ps = template.evaluate(DesignVariables.from_unit(x),
                               evaluator.band_grid, evaluator.guard_grid)
        np.testing.assert_allclose(pc.nf_db, ps.nf_db, atol=1e-8)
        assert pc.mu_min == pytest.approx(ps.mu_min, abs=1e-8)

    def test_unknown_engine_rejected(self, template):
        with pytest.raises(TypeError):
            LnaEvaluator(template, engine="quantum")

    def test_cache_key_folds_negative_zero(self, template):
        evaluator = LnaEvaluator(template)
        x = np.full(len(DesignVariables.NAMES), 0.25)
        x_neg = x.copy()
        x_neg[0] = -0.0
        x_pos = x.copy()
        x_pos[0] = 0.0
        # -0.0 == 0.0 numerically; the key must agree too.
        assert evaluator._key(x_neg) == evaluator._key(x_pos)

    @pytest.mark.parametrize("entry", ["performance", "performance_batch"])
    def test_eviction_between_get_and_move_to_end(self, template, entry,
                                                  monkeypatch):
        """Shard threads share one evaluator: an eviction by another
        thread between a hit's ``get`` and ``move_to_end`` must not
        raise ``KeyError``."""
        monkeypatch.setattr(LnaEvaluator, "CACHE_SIZE", 1)
        evaluator = LnaEvaluator(template)
        x_old = np.full(len(DesignVariables.NAMES), 0.4)
        x_new = np.full(len(DesignVariables.NAMES), 0.6)
        cached = evaluator.performance(x_old)
        evaluator._cache = _InterleavingCache(evaluator._cache)
        evaluator._cache.intruder = lambda: evaluator.performance(x_new)
        if entry == "performance":
            served = evaluator.performance(x_old)
        else:
            served, = evaluator.performance_batch(x_old[None, :])
        evaluator._cache.thread.join(timeout=30.0)
        assert not evaluator._cache.thread.is_alive()
        assert served is cached
        assert evaluator.n_solves == 2
        assert evaluator.cache_hits == 1
        assert list(evaluator._cache) == [evaluator._key(x_new)]

    def test_shard_threads_lose_no_counter_updates(self, template, engine,
                                                   monkeypatch):
        """Every lookup is counted once as a hit or a solve, however
        shard threads interleave over a small, constantly evicting
        cache."""
        monkeypatch.setattr(LnaEvaluator, "CACHE_SIZE", 2)
        evaluator = LnaEvaluator(template)
        points = np.linspace(0.2, 0.8, 6)[:, None] * np.ones(
            len(DesignVariables.NAMES))
        # A canned solve keeps each call short, so threads mostly
        # contend on the cache and the counters.
        canned = engine.performance(points[0])
        evaluator._solve_misses = lambda rows: ([canned] * len(rows), 0)
        n_threads, n_rounds = 4, 2000
        errors = []

        def worker(k):
            try:
                for r in range(n_rounds):
                    x = points[(k + r) % len(points)]
                    if k % 2:
                        evaluator.performance_batch(x[None, :])
                    else:
                        evaluator.performance(x)
            except Exception as exc:  # surfaced by the assert below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(k,))
                       for k in range(n_threads)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert (evaluator.n_solves + evaluator.cache_hits
                == n_threads * n_rounds)
        assert len(evaluator._cache) <= 2


def _toy_problem(batch, nan_above=np.inf):
    """Two quadratic objectives on the unit square, one bound-like
    constraint; without *batch*, ``evaluate`` refuses stacks, so every
    row is evaluated alone.  Both objectives are NaN where
    ``x[0] > nan_above``."""
    def evaluate(x):
        if not batch and len(x) > 1:
            raise RuntimeError("one row at a time")
        values = np.column_stack([
            np.sum((x - 0.3) ** 2, axis=1),
            np.sum((x - 0.7) ** 2, axis=1),
        ])
        values[x[:, 0] > nan_above] = np.nan
        return values, x[:, :1] - 0.9

    return MultiObjectiveProblem(
        evaluate=evaluate, n_objectives=2, lower=np.zeros(2),
        upper=np.ones(2))


class TestBatchObjectiveProtocol:
    def test_problem_carries_batch_callables(self, template):
        problem = build_lna_problem(template)
        x = np.full(len(DesignVariables.NAMES), 0.5)
        batch = np.vstack([x, x * 0.8])
        f_batch, g_batch = problem.evaluate(batch)
        f_row, g_row = problem.evaluate(x[None, :])
        np.testing.assert_allclose(f_batch[:1], f_row, atol=1e-12)
        np.testing.assert_allclose(g_batch[:1], g_row, atol=1e-12)
        assert f_batch.shape == (2, 2)
        assert g_batch.shape == (2, 5)

    def test_population_evaluator_matches_loop(self):
        def sphere(x):
            return float(np.sum(x ** 2))

        def sphere_batch(x):
            return np.sum(x ** 2, axis=1)

        rng = np.random.default_rng(0)
        population = rng.random((8, 3))
        looped = PopulationEvaluator(sphere)(population)
        batched = PopulationEvaluator(sphere, sphere_batch)(population)
        np.testing.assert_allclose(batched, looped, atol=1e-15)

    def test_pso_batch_is_trajectory_identical(self):
        def rosenbrock(x):
            return float(
                100.0 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2
            )

        def rosenbrock_batch(x):
            return 100.0 * (x[:, 1] - x[:, 0] ** 2) ** 2 + (
                1.0 - x[:, 0]
            ) ** 2

        kwargs = dict(lower=[-2, -2], upper=[2, 2], n_particles=12,
                      max_iterations=40, seed=3)
        sequential = particle_swarm(rosenbrock, **kwargs)
        batched = particle_swarm(rosenbrock,
                                 objective_batch=rosenbrock_batch, **kwargs)
        np.testing.assert_array_equal(batched.x, sequential.x)
        assert batched.fun == sequential.fun
        assert batched.nfev == sequential.nfev

    def test_de_batch_converges_on_sphere(self):
        def sphere(x):
            return float(np.sum(x ** 2))

        def sphere_batch(x):
            return np.sum(x ** 2, axis=1)

        result = differential_evolution(
            sphere, lower=[-3] * 3, upper=[3] * 3, population_size=20,
            max_iterations=150, seed=1, objective_batch=sphere_batch,
        )
        assert result.fun < 1e-6
        assert result.nfev == 20 * (1 + result.n_iterations)

    def test_nsga2_batch_matches_scalar_run(self):
        def objectives(x):
            return np.array([x[0], (1.0 + x[1]) / max(x[0], 1e-9)])

        def objectives_batch(x):
            return np.column_stack([
                x[:, 0], (1.0 + x[:, 1]) / np.maximum(x[:, 0], 1e-9)
            ])

        base = dict(n_objectives=2, lower=np.array([0.1, 0.0]),
                    upper=np.array([1.0, 5.0]))
        scalar_problem = pointwise_problem(objectives=objectives,
                                           one_row=True, **base)
        batch_problem = MultiObjectiveProblem(
            evaluate=lambda x: (objectives_batch(x), np.zeros((len(x), 0))),
            **base)
        kwargs = dict(population_size=16, n_generations=12, seed=2)
        front_scalar = nsga2(scalar_problem, **kwargs)
        front_batch = nsga2(batch_problem, **kwargs)
        np.testing.assert_allclose(front_batch.x, front_scalar.x,
                                   atol=1e-12)
        assert front_batch.nfev == front_scalar.nfev

    def test_improved_goal_attainment_batch_probe_matches(self):
        goals = np.array([0.05, 0.05])
        r_scalar = goal_attainment_improved(_toy_problem(batch=False),
                                            goals, seed=4,
                                            n_probe=16, n_starts=2)
        r_batch = goal_attainment_improved(_toy_problem(batch=True),
                                           goals, seed=4,
                                           n_probe=16, n_starts=2)
        np.testing.assert_allclose(r_batch.x, r_scalar.x, atol=1e-10)
        assert r_batch.nfev == r_scalar.nfev

    @pytest.mark.parametrize("nan_above", [np.inf, 0.8])
    def test_improved_probe_stage_matches_with_and_without_batch(
            self, nan_above):
        """The probe stage counts, memoizes and penalizes its rows alike
        on both paths: a first start at the last probe is not counted
        twice, and failed probes are left out of the ranges."""
        goals = np.array([0.05, 0.05])
        kwargs = dict(n_probe=4, n_starts=1, tighten_rounds=0)
        for seed in range(60):
            r_scalar = goal_attainment_improved(
                _toy_problem(batch=False, nan_above=nan_above), goals,
                seed=seed, **kwargs)
            r_batch = goal_attainment_improved(
                _toy_problem(batch=True, nan_above=nan_above), goals,
                seed=seed, **kwargs)
            assert r_batch.nfev == r_scalar.nfev, seed
            assert r_batch.x.tobytes() == r_scalar.x.tobytes(), seed
