"""Fault injection and absorption across the optimization runtime.

The contract under test: a candidate evaluation that raises, returns
NaN, or produces non-finite figures costs one penalty evaluation —
never the run.  Health counters must match the injected fault counts
exactly, and optimizers under 20% injected failures must still land on
the clean-run optimum.
"""

import numpy as np
import pytest

from repro.optimize import (
    EvaluationFailure,
    FaultInjector,
    InjectedFault,
    RunHealth,
    classify_exception,
    differential_evolution,
    guarded_call,
    nsga2,
    particle_swarm,
    simulated_annealing,
)
from repro.optimize.faults import (
    CATEGORY_DC,
    CATEGORY_EXCEPTION,
    CATEGORY_NON_FINITE,
    CATEGORY_SINGULAR,
)
from repro.analysis.dc import DcConvergenceError
from toy_problems import pointwise_problem


def sphere(x):
    return float(np.sum(np.asarray(x) ** 2))


# ----------------------------------------------------------------------
# taxonomy and guarded_call
# ----------------------------------------------------------------------

def test_classify_exception_categories():
    assert classify_exception(DcConvergenceError("no dc")) == CATEGORY_DC
    assert classify_exception(
        np.linalg.LinAlgError("Singular matrix")
    ) == CATEGORY_SINGULAR
    assert classify_exception(
        ValueError("matrix is singular at row 3")
    ) == CATEGORY_SINGULAR
    assert classify_exception(RuntimeError("boom")) == CATEGORY_EXCEPTION


def test_guarded_call_absorbs_and_counts():
    health = RunHealth()

    def bad(x):
        raise np.linalg.LinAlgError("Singular matrix")

    assert guarded_call(bad, np.zeros(2), health) == np.inf
    assert guarded_call(lambda x: np.nan, np.zeros(2), health) == np.inf
    assert guarded_call(sphere, np.ones(2), health) == 2.0
    assert health.failures == {CATEGORY_SINGULAR: 1, CATEGORY_NON_FINITE: 1}
    assert health.n_failures == 2


def test_guarded_call_propagates_keyboard_interrupt():
    def interrupt(x):
        raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        guarded_call(interrupt, np.zeros(2), RunHealth())


def test_run_health_merge_and_roundtrip():
    a = RunHealth()
    a.record(CATEGORY_SINGULAR, 2)
    a.retries = 1
    b = RunHealth()
    b.record(CATEGORY_SINGULAR)
    b.record(CATEGORY_NON_FINITE, 3)
    b.engine_fallbacks = 2
    a.merge(b)
    assert a.failures == {CATEGORY_SINGULAR: 3, CATEGORY_NON_FINITE: 3}
    assert a.engine_fallbacks == 2

    restored = RunHealth()
    restored.restore(a.state())
    assert restored.failures == a.failures
    assert restored.retries == a.retries
    assert restored.as_dict()["n_failures"] == 6


def test_run_health_restores_pre_thread_shard_checkpoint_state():
    # Checkpoints written while RunHealth still counted process-pool
    # rebuilds carry two extra keys; they must keep restoring.
    legacy = {
        "failures": {CATEGORY_SINGULAR: 2},
        "retries": 3,
        "pool_rebuilds": 1,
        "engine_fallbacks": 4,
        "serial_fallback": True,
        "checkpoints_written": 5,
    }
    restored = RunHealth()
    restored.restore(legacy)
    assert restored.failures == {CATEGORY_SINGULAR: 2}
    assert restored.retries == 3
    assert restored.engine_fallbacks == 4
    assert restored.checkpoints_written == 5
    assert "pool_rebuilds" not in restored.state()


def test_evaluation_failure_str():
    failure = EvaluationFailure("singular", "matrix is singular")
    assert "singular" in str(failure)


# ----------------------------------------------------------------------
# the injector itself
# ----------------------------------------------------------------------

def test_fault_injector_counts_match_behaviour():
    injector = FaultInjector(sphere, p_raise=0.3, p_nan=0.3, seed=7)
    raised = nans = clean = 0
    for _ in range(300):
        try:
            value = injector(np.ones(2))
        except InjectedFault:
            raised += 1
            continue
        if isinstance(value, float) and np.isnan(value):
            nans += 1
        else:
            clean += 1
    assert injector.n_calls == 300
    assert injector.n_raised == raised > 0
    assert injector.n_nan == nans > 0
    assert injector.n_injected == raised + nans
    assert clean == 300 - raised - nans


def test_fault_injector_validates_probabilities():
    with pytest.raises(ValueError):
        FaultInjector(sphere, p_raise=1.2)
    with pytest.raises(ValueError):
        FaultInjector(sphere, p_raise=0.6, p_nan=0.6)


def test_fault_injector_is_deterministic_under_seed():
    a = FaultInjector(sphere, p_raise=0.2, p_nan=0.2, seed=3)
    b = FaultInjector(sphere, p_raise=0.2, p_nan=0.2, seed=3)
    for _ in range(100):
        ra = rb = "ok"
        try:
            va = a(np.ones(2))
        except InjectedFault:
            ra = "raise"
            va = None
        try:
            vb = b(np.ones(2))
        except InjectedFault:
            rb = "raise"
            vb = None
        assert ra == rb
        if va is not None:
            assert np.array_equal(va, vb, equal_nan=True)


# ----------------------------------------------------------------------
# acceptance: optimizers under 20% injected failures
# ----------------------------------------------------------------------

def test_de_completes_and_matches_clean_run_under_faults():
    lower, upper = -np.ones(3), np.ones(3)
    clean = differential_evolution(
        sphere, lower, upper, population_size=20, max_iterations=150,
        seed=11,
    )
    injector = FaultInjector(sphere, p_raise=0.1, p_nan=0.1, seed=5)
    faulty = differential_evolution(
        injector, lower, upper, population_size=20, max_iterations=150,
        seed=11,
    )
    assert np.isfinite(faulty.fun)
    assert abs(faulty.fun - clean.fun) < 1e-6
    health = faulty.health
    assert health.failures.get(CATEGORY_EXCEPTION, 0) == injector.n_raised
    assert health.failures.get(CATEGORY_NON_FINITE, 0) == injector.n_nan
    assert health.n_failures == injector.n_injected > 0


def test_pso_completes_and_matches_clean_run_under_faults():
    lower, upper = -np.ones(3), np.ones(3)
    clean = particle_swarm(
        sphere, lower, upper, n_particles=25, max_iterations=200, seed=2,
    )
    injector = FaultInjector(sphere, p_raise=0.1, p_nan=0.1, seed=9)
    faulty = particle_swarm(
        injector, lower, upper, n_particles=25, max_iterations=200, seed=2,
    )
    assert np.isfinite(faulty.fun)
    assert abs(faulty.fun - clean.fun) < 1e-6
    health = faulty.health
    assert health.failures.get(CATEGORY_EXCEPTION, 0) == injector.n_raised
    assert health.failures.get(CATEGORY_NON_FINITE, 0) == injector.n_nan
    assert health.n_failures == injector.n_injected > 0


def test_sa_survives_nan_objective():
    calls = {"n": 0}

    def sometimes_nan(x):
        calls["n"] += 1
        if calls["n"] % 4 == 0:
            return np.nan
        return sphere(x)

    result = simulated_annealing(
        sometimes_nan, -np.ones(2), np.ones(2), max_iterations=300, seed=0,
    )
    assert np.isfinite(result.fun)
    assert result.health.failures.get(CATEGORY_NON_FINITE, 0) > 0


def test_nsga2_completes_with_counters_under_faults():
    def objectives(x):
        x = np.asarray(x, dtype=float)
        return np.array([float(np.sum(x ** 2)),
                         float(np.sum((x - 1.0) ** 2))])

    injector = FaultInjector(
        objectives, p_raise=0.1, p_nan=0.1,
        nan_value=np.full(2, np.nan), seed=4,
    )
    # A problem that evaluates one row at a time: every injector draw
    # happens in the failure rule's row loop, so each injected fault is
    # one failed row.
    problem = pointwise_problem(
        objectives=injector, n_objectives=2,
        lower=np.zeros(2), upper=np.ones(2), one_row=True,
    )
    result = nsga2(problem, population_size=16, n_generations=12, seed=0)
    assert len(result.x) > 0
    assert np.all(np.isfinite(result.objectives))
    health = result.health
    assert health.failures.get(CATEGORY_EXCEPTION, 0) == injector.n_raised
    assert health.failures.get(CATEGORY_NON_FINITE, 0) == injector.n_nan
    assert health.n_failures == injector.n_injected > 0
    # Penalized candidates must not survive into the final front.
    assert np.all(result.objectives < 1.0e9)


def test_de_all_failures_still_terminates():
    def always_bad(x):
        raise RuntimeError("nothing works")

    result = differential_evolution(
        always_bad, -np.ones(2), np.ones(2), population_size=8,
        max_iterations=5, seed=0,
    )
    assert result.fun == np.inf
    assert result.health.n_failures == 8 * (1 + 5)


# ----------------------------------------------------------------------
# seeded-jitter backoff
# ----------------------------------------------------------------------

def test_backoff_delay_without_jitter_is_the_capped_schedule():
    from repro.optimize.faults import backoff_delay
    for attempt in range(8):
        assert backoff_delay(attempt, 0.1, 2.0, jitter=0.0) == \
            min(2.0, 0.1 * 2.0 ** attempt)


def test_backoff_delay_jitter_is_bounded_and_deterministic():
    from repro.optimize.faults import backoff_delay
    for attempt in range(8):
        undithered = min(2.0, 0.1 * 2.0 ** attempt)
        delay = backoff_delay(attempt, 0.1, 2.0, jitter=0.25, key="job-a")
        # Never above the capped schedule, never more than 25% below.
        assert 0.75 * undithered <= delay <= undithered
        # Same (key, attempt) -> same delay: no ambient RNG consumed.
        assert delay == backoff_delay(attempt, 0.1, 2.0, jitter=0.25,
                                      key="job-a")


def test_backoff_delay_desynchronizes_distinct_keys():
    from repro.optimize.faults import backoff_delay
    delays = {backoff_delay(2, 0.1, 2.0, key=f"job-{i}")
              for i in range(16)}
    assert len(delays) > 8      # a wave of retries spreads out


def test_backoff_delay_stays_monotone_below_the_cap():
    from repro.optimize.faults import backoff_delay
    # 0.1 * 2**k stays below the 2.0 cap through attempt 4; jitter of
    # 0.25 < 0.5 cannot make a doubled next delay fall below the
    # previous one, so the schedule keeps growing.
    delays = [backoff_delay(k, 0.1, 2.0, key="job-x") for k in range(5)]
    assert delays == sorted(delays)
    assert all(b > a for a, b in zip(delays, delays[1:]))


def test_retry_transient_sleeps_the_jittered_schedule(monkeypatch):
    import repro.optimize.faults as faults_mod
    from repro.optimize.faults import backoff_delay, retry_transient

    sleeps = []
    monkeypatch.setattr(faults_mod.time, "sleep", sleeps.append)
    calls = {"n": 0}

    def flaky():
        calls["n"] += 1
        if calls["n"] < 3:
            raise OSError("hiccup")
        return "ok"

    assert retry_transient(flaky, attempts=3, jitter_key="job-y") == "ok"
    assert sleeps == [backoff_delay(0, key="job-y"),
                      backoff_delay(1, key="job-y")]
