"""Fault isolation and thread sharding in :class:`PopulationEvaluator`.

Contracts under test:

* a candidate that raises or returns a non-finite value costs ``+inf``
  fitness and a :class:`RunHealth` counter tick, never the run; a
  batch call that raises degrades to the guarded scalar loop;
* ``workers > 1`` splits each population into thread shards whose
  values are ``array_equal`` to in-process evaluation and whose health
  counts match it too, for batch and scalar objectives alike;
* ``workers=`` on the front-end optimizers (DE, NSGA-II, goal
  attainment) and on ``DesignFlow``'s LNA problem is a pure speed
  knob — the sharded run reproduces the single-threaded result
  exactly;
* a :class:`CompiledTemplate` survives a pickle round trip bit-exactly.
"""

import pickle
import sys

import numpy as np
import pytest

from repro.core.amplifier import AmplifierTemplate, DesignVariables
from repro.core.design import DesignFlow
from repro.core.engine import CompiledTemplate
from repro.experiments.common import reference_device
from repro.optimize import (
    PopulationEvaluator,
    differential_evolution,
    nsga2,
    validate_workers,
)
from repro.optimize.batching import BatchShardExecutor
from repro.optimize.faults import (
    CATEGORY_EXCEPTION,
    CATEGORY_NON_FINITE,
    RunHealth,
)
from repro.optimize.goal_attainment import (
    MultiObjectiveProblem,
    goal_attainment_improved,
)


def _sphere(x):
    return float(np.sum(np.asarray(x) ** 2))


def _sphere_batch(population):
    return np.sum(np.asarray(population) ** 2, axis=1)


def _biobjective_batch(population):
    population = np.asarray(population, dtype=float)
    return np.stack([
        np.sum(population ** 2, axis=1),
        np.sum((population - 1.0) ** 2, axis=1),
    ], axis=1)


def _batch_problem():
    return MultiObjectiveProblem(
        evaluate=lambda x: (_biobjective_batch(x), np.zeros((len(x), 0))),
        n_objectives=2, lower=np.zeros(3), upper=np.ones(3),
    )


def _raise_for_negative(x):
    if x[0] < 0:
        raise RuntimeError("bad candidate")
    return _sphere(x)


def _nan_for_negative(x):
    if x[0] < 0:
        return float("nan")
    return _sphere(x)


# ----------------------------------------------------------------------
# validate_workers
# ----------------------------------------------------------------------

def test_validate_workers_accepts_none_and_positive_ints():
    assert validate_workers(None) is None
    assert validate_workers(1) == 1
    assert validate_workers(np.int64(4)) == 4


@pytest.mark.parametrize("bad", [True, False, 2.0, "3", [2]])
def test_validate_workers_rejects_non_integers(bad):
    with pytest.raises(TypeError):
        validate_workers(bad)


@pytest.mark.parametrize("bad", [0, -1, -100])
def test_validate_workers_rejects_non_positive(bad):
    with pytest.raises(ValueError):
        validate_workers(bad)


def test_removed_parallel_knobs_raise_type_error():
    with pytest.raises(TypeError):
        PopulationEvaluator(_sphere, backend="thread")
    with pytest.raises(TypeError):
        PopulationEvaluator(_sphere, generation_timeout=1.0)
    with pytest.raises(TypeError):
        differential_evolution(_sphere, [-1.0] * 2, [1.0] * 2,
                               max_iterations=1, backend="batch")


# ----------------------------------------------------------------------
# serial and batch paths
# ----------------------------------------------------------------------

def test_serial_path_isolates_raising_and_nan_candidates():
    evaluator = PopulationEvaluator(_raise_for_negative)
    pop = np.array([[1.0, 1.0], [-1.0, 0.0], [2.0, 0.0]])
    values = evaluator(pop)
    assert values.tolist() == [2.0, np.inf, 4.0]
    assert evaluator.health.failures == {CATEGORY_EXCEPTION: 1}


def test_batch_exception_falls_back_to_serial_and_counts_retry():
    def bad_batch(pop):
        raise np.linalg.LinAlgError("Singular matrix")

    evaluator = PopulationEvaluator(_sphere, objective_batch=bad_batch)
    values = evaluator(np.array([[1.0, 0.0], [2.0, 0.0]]))
    assert values.tolist() == [1.0, 4.0]
    assert evaluator.health.retries == 1
    assert evaluator.health.n_failures == 0


def test_batch_non_finite_rows_become_inf():
    def nan_batch(pop):
        values = np.sum(pop ** 2, axis=1)
        values[1] = np.nan
        return values

    evaluator = PopulationEvaluator(_sphere, objective_batch=nan_batch)
    values = evaluator(np.ones((3, 2)))
    assert values[1] == np.inf
    assert evaluator.health.failures == {CATEGORY_NON_FINITE: 1}


def test_batch_wrong_length_is_a_programming_error():
    evaluator = PopulationEvaluator(
        _sphere, objective_batch=lambda pop: np.zeros(5)
    )
    with pytest.raises(ValueError):
        evaluator(np.ones((3, 2)))


# ----------------------------------------------------------------------
# thread shards
# ----------------------------------------------------------------------

def _raise_or_nan(x):
    """Raises for x[0] < -0.5, NaN for -0.5 <= x[0] < 0, else sphere."""
    if x[0] < -0.5:
        raise RuntimeError("bad candidate")
    if x[0] < 0.0:
        return float("nan")
    return _sphere(x)


def _raise_or_nan_batch(population):
    population = np.asarray(population, dtype=float)
    values = _sphere_batch(population)
    values[population[:, 0] < 0.0] = np.nan
    return values


@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize("n_rows", [1, 2, 7])
@pytest.mark.parametrize("batched", [True, False])
def test_thread_shards_match_in_process(workers, n_rows, batched):
    rng = np.random.default_rng(100 * workers + n_rows)
    population = rng.uniform(0.0, 1.0, (n_rows, 3))
    # Make sure both failure kinds appear whenever there is room.
    population[0, 0] = -0.8
    if n_rows > 1:
        population[1, 0] = -0.2
    batch = _raise_or_nan_batch if batched else None

    reference = PopulationEvaluator(_raise_or_nan, objective_batch=batch)
    expected = reference(population)
    with PopulationEvaluator(_raise_or_nan, objective_batch=batch,
                             workers=workers) as sharded:
        values = sharded(population)

    np.testing.assert_array_equal(values, expected)
    assert np.isinf(values[0])
    assert sharded.health.failures == reference.health.failures
    assert sharded.health.retries == reference.health.retries
    assert sharded.health.n_failures == (2 if n_rows > 1 else 1)


def test_thread_shards_degrade_batch_errors_per_shard():
    def bad_batch(pop):
        raise np.linalg.LinAlgError("Singular matrix")

    population = np.arange(12.0).reshape(6, 2) - 4.0
    reference = PopulationEvaluator(_raise_for_negative,
                                    objective_batch=bad_batch)
    expected = reference(population)
    with PopulationEvaluator(_raise_for_negative, objective_batch=bad_batch,
                             workers=2) as sharded:
        np.testing.assert_array_equal(sharded(population), expected)
    assert sharded.health.failures == reference.health.failures
    # Each shard's failed batch call counts one retry.
    assert reference.health.retries == 1
    assert sharded.health.retries == 2


def test_pool_evaluates_and_closes_cleanly():
    with PopulationEvaluator(_sphere, workers=2) as evaluator:
        values = evaluator(np.array([[1.0, 0.0], [2.0, 0.0], [0.0, 3.0]]))
        assert values.tolist() == [1.0, 4.0, 9.0]
        shards = evaluator._shards
        assert shards is not None and shards._pool is not None
    assert evaluator._shards is None  # closed by the context manager
    assert shards._pool is None


def test_pool_isolates_worker_exceptions_and_nans():
    with PopulationEvaluator(_raise_for_negative, workers=2) as evaluator:
        values = evaluator(np.array([[1.0, 0.0], [-1.0, 0.0]]))
        assert values.tolist() == [1.0, np.inf]
        assert evaluator.health.failures == {CATEGORY_EXCEPTION: 1}
    with PopulationEvaluator(_nan_for_negative, workers=2) as evaluator:
        values = evaluator(np.array([[1.0, 0.0], [-1.0, 0.0]]))
        assert values.tolist() == [1.0, np.inf]
        assert evaluator.health.failures == {CATEGORY_NON_FINITE: 1}


def test_single_worker_degrades_to_in_process():
    evaluator = PopulationEvaluator(_sphere, workers=1)
    assert evaluator._shards is None
    assert evaluator(np.array([[2.0, 0.0]])).tolist() == [4.0]


def test_close_is_idempotent():
    evaluator = PopulationEvaluator(_sphere, workers=2)
    evaluator(np.array([[1.0, 0.0]]))
    evaluator.close()
    evaluator.close()
    # A closed evaluator keeps answering, in the calling thread.
    assert evaluator(np.array([[3.0, 0.0], [1.0, 0.0]])).tolist() == [
        9.0, 1.0]


def test_shared_health_accumulates_across_evaluators():
    health = RunHealth()
    PopulationEvaluator(_raise_for_negative, health=health)(
        np.array([[-1.0, 0.0]])
    )
    PopulationEvaluator(_nan_for_negative, health=health)(
        np.array([[-1.0, 0.0]])
    )
    assert health.failures == {
        CATEGORY_EXCEPTION: 1,
        CATEGORY_NON_FINITE: 1,
    }


def test_shard_executor_preserves_row_order():
    population = np.arange(22.0).reshape(11, 2)
    with BatchShardExecutor(workers=3) as executor:
        parts = executor.map_shards(_sphere_batch, population)
        assert len(parts) == 3
        np.testing.assert_array_equal(np.concatenate(parts),
                                      _sphere_batch(population))
        np.testing.assert_array_equal(
            np.concatenate(executor.map_shards(_biobjective_batch,
                                               population)),
            _biobjective_batch(population))
        # A single-row population takes the direct (pool-free) path.
        assert len(executor.map_shards(_sphere_batch, population[:1])) == 1


def test_shard_executor_rejects_use_after_close():
    executor = BatchShardExecutor(workers=2)
    executor.close()
    with pytest.raises(RuntimeError):
        executor.map_shards(_sphere_batch, np.ones((4, 2)))


# ----------------------------------------------------------------------
# optimizer front-ends
# ----------------------------------------------------------------------

def test_nsga2_workers_bit_identical():
    kwargs = dict(population_size=12, n_generations=6, seed=1)
    single = nsga2(_batch_problem(), **kwargs)
    sharded = nsga2(_batch_problem(), workers=2, **kwargs)
    np.testing.assert_array_equal(sharded.x, single.x)
    np.testing.assert_array_equal(sharded.objectives, single.objectives)
    assert sharded.nfev == single.nfev


def test_goal_attainment_workers_bit_identical():
    goals = np.array([0.2, 0.2])
    kwargs = dict(seed=0, n_probe=16, n_starts=1, tighten_rounds=1)
    single = goal_attainment_improved(_batch_problem(), goals, **kwargs)
    sharded = goal_attainment_improved(_batch_problem(), goals, workers=2,
                                       **kwargs)
    np.testing.assert_array_equal(sharded.x, single.x)
    np.testing.assert_array_equal(sharded.objectives, single.objectives)
    assert sharded.nfev == single.nfev


def test_design_flow_workers_bit_identical():
    # The LNA problem shards the compiled engine across threads; each
    # thread must assemble into its own scratch, never a shared one.
    # Equal-size shards, fresh rows every round (the evaluator cache
    # would otherwise answer) and a short switch interval make any
    # shared-buffer interleaving likely.
    device = reference_device().small_signal
    rng = np.random.default_rng(5)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with DesignFlow(device) as single, \
                DesignFlow(device, workers=2) as sharded:
            for _ in range(4):
                population = rng.random((48, single.problem.lower.size))
                for got, expected in zip(
                        sharded.problem.evaluate(population),
                        single.problem.evaluate(population)):
                    np.testing.assert_array_equal(got, expected)
    finally:
        sys.setswitchinterval(interval)


def test_de_workers_bit_identical():
    kwargs = dict(population_size=10, max_iterations=8, seed=4)
    single = differential_evolution(_sphere, [-2.0] * 3, [2.0] * 3,
                                    workers=1, **kwargs)
    sharded = differential_evolution(_sphere, [-2.0] * 3, [2.0] * 3,
                                     workers=3, **kwargs)
    np.testing.assert_array_equal(sharded.x, single.x)
    np.testing.assert_array_equal(sharded.history, single.history)
    assert sharded.nfev == single.nfev


# ----------------------------------------------------------------------
# the compiled engine pickles by recompiling
# ----------------------------------------------------------------------

def test_compiled_template_pickle_roundtrip():
    template = AmplifierTemplate(reference_device().small_signal)
    engine = CompiledTemplate(template, verify=False)
    clone = pickle.loads(pickle.dumps(engine))
    population = np.random.default_rng(3).random(
        (4, len(DesignVariables.NAMES)))
    original = engine.performance_batch(population)
    recompiled = clone.performance_batch(population)
    np.testing.assert_array_equal(original.nf_max_db, recompiled.nf_max_db)
    np.testing.assert_array_equal(original.gt_min_db, recompiled.gt_min_db)
    np.testing.assert_array_equal(original.mu_min, recompiled.mu_min)
