"""Yield-aware robust evaluation (repro.optimize.robust).

Contracts under test:

* :class:`CornerSet` — construction, validation, composition, the
  physical-space ``apply`` map, and the offset-only bias book;
* :class:`QuadraticSurrogate` — deterministic ridge fits, the
  ready-gate, history cap, and bit-identical state round-trips;
* :class:`RobustEvaluator` — batched sweeps, surrogate pre-screening
  with journaled ``screen_decision`` events, poison-corner quarantine
  with healthy corners bit-identical, and checkpointable state;
* the robust NSGA-II pipeline — a killed run resumes **bit-for-bit**
  (corner RNG + surrogate history restored through the checkpoint);
* :class:`RobustScalarObjective` — picklable, fault-tolerant under
  injection, and runnable as the ``robust.optimize`` service job.
"""

import dataclasses
import json
import pickle

import numpy as np
import pytest

from repro.core.amplifier import AmplifierTemplate, DesignVariables
from repro.core import engine as engine_module
from repro.core.bands import design_grid, stability_grid
from repro.core.engine import BatchPerformance, CompiledTemplate
from repro.core.tolerance import ToleranceSpec
from repro.experiments.common import reference_device
from repro.obs.journal import RunJournal, set_journal
from repro.optimize import MemoryCheckpointStore, nsga2
from repro.optimize.faults import FaultInjector
from repro.optimize.goal_attainment import _CountedObjectives
from repro.optimize.metaheuristics import differential_evolution
from repro.optimize.pareto import pareto_filter
from repro.optimize.robust import (
    BIAS_VARS,
    PENALTY_GT_DB,
    PENALTY_NF_DB,
    CornerSet,
    QuadraticSurrogate,
    RobustEvaluator,
    RobustScalarObjective,
    RobustStateSink,
    build_robust_problem,
    robust_score,
)

N_VARS = len(DesignVariables.NAMES)


@pytest.fixture(scope="module")
def template():
    return AmplifierTemplate(reference_device().small_signal)


@pytest.fixture()
def journal(tmp_path):
    path = str(tmp_path / "journal.jsonl")
    recorder = RunJournal(path, run_id="test")
    previous = set_journal(recorder)

    def events():
        recorder.flush()
        with open(path, "r", encoding="utf-8") as handle:
            return [json.loads(line) for line in handle if line.strip()]

    try:
        yield events
    finally:
        set_journal(previous)
        recorder.close()


def _evaluator(template, **overrides):
    kwargs = dict(band_grid=design_grid(5), guard_grid=stability_grid(6),
                  gt_ship_limit_db=11.0)
    kwargs.update(overrides)
    return RobustEvaluator(template, **kwargs)


# ----------------------------------------------------------------------
# corner sets
# ----------------------------------------------------------------------

class TestCornerSet:
    def test_nominal_is_identity(self):
        x = np.linspace(1.0, 2.0, N_VARS)
        corners = CornerSet.nominal()
        np.testing.assert_array_equal(corners.apply(x), x[None, :])

    def test_from_tolerances_is_the_corner_book(self):
        tol = ToleranceSpec(inductor=0.1)
        corners = CornerSet.from_tolerances(tol)
        assert corners.n_corners == 10 and len(corners) == 10
        assert "L-low" in corners.names and "all-high" in corners.names
        x = np.ones(N_VARS)
        swept = corners.apply(x)
        low = swept[corners.names.index("L-low")]
        # inductor columns pushed to -10 %, everything else nominal
        idx = DesignVariables.NAMES.index("l_in")
        assert low[idx] == pytest.approx(0.9)
        assert low[DesignVariables.NAMES.index("c_in")] == 1.0

    def test_bias_corners_are_bias_only_and_tolerances_are_not(self):
        bias = CornerSet.bias()
        np.testing.assert_array_equal(bias.scale, 1.0)
        passive = np.ones(N_VARS, dtype=bool)
        passive[list(BIAS_VARS)] = False
        assert not np.any(bias.offset[:, passive])
        assert np.all(bias.offset[:, list(BIAS_VARS)] != 0.0)
        for corners in (CornerSet.from_tolerances(),
                        CornerSet.temperature()):
            assert np.any(corners.scale[:, passive] != 1.0)

    def test_composition_concatenates(self):
        combined = CornerSet.from_tolerances() + CornerSet.bias()
        assert combined.n_corners == 14
        assert combined.names[:10] == CornerSet.from_tolerances().names

    def test_temperature_corners(self):
        corners = CornerSet.temperature(t_min_c=-40.0, t_max_c=85.0)
        assert corners.n_corners == 2
        cold, hot = corners.scale
        l_idx = DesignVariables.NAMES.index("l_in")
        assert cold[l_idx] < 1.0 < hot[l_idx]  # positive tempco
        with pytest.raises(ValueError, match="t_min_c"):
            CornerSet.temperature(t_min_c=50.0, t_max_c=25.0)

    def test_monte_carlo_is_seed_deterministic(self):
        a = CornerSet.monte_carlo(n_trials=5, rng=7)
        b = CornerSet.monte_carlo(n_trials=5, rng=7)
        np.testing.assert_array_equal(a.scale, b.scale)
        np.testing.assert_array_equal(a.offset, b.offset)
        assert a.names[0] == "mc-000"
        with pytest.raises(ValueError, match="n_trials"):
            CornerSet.monte_carlo(n_trials=0)

    def test_validation_rejects_bad_input(self):
        ones = np.ones((2, N_VARS))
        zeros = np.zeros((2, N_VARS))
        with pytest.raises(ValueError, match="positive"):
            CornerSet(("a", "b"), -ones, zeros)
        with pytest.raises(ValueError, match="names"):
            CornerSet(("only-one",), ones, zeros)
        with pytest.raises(ValueError, match="finite"):
            CornerSet(("a", "b"), ones * np.nan, zeros)
        with pytest.raises(ValueError, match="matching"):
            CornerSet(("a", "b"), ones, np.zeros((2, 3)))
        with pytest.raises(ValueError, match="width"):
            CornerSet.bias() + CornerSet(("w",), np.ones((1, 3)),
                                         np.zeros((1, 3)))
        with pytest.raises(ValueError, match="physical vector"):
            CornerSet.bias().apply(np.ones(3))


def _failure_key(failure):
    if failure is None:
        return None
    return failure.category, failure.message, failure.x.tobytes()


def test_isolated_blocks_match_row_by_row(template):
    """130 rows solve as 64 + 64 + 2 blocks; every row, and every
    failure, is exactly what a one-row call gives."""
    assert engine_module._ISOLATED_BLOCK_ROWS == 64
    engine = CompiledTemplate(template, design_grid(5), stability_grid(6),
                              verify=False)
    x = engine._to_physical(
        np.random.default_rng(7).random((130, N_VARS)))
    sick = [5, 63, 64, 129]  # both sides of each block boundary
    x[sick, BIAS_VARS[0]] -= 5.0
    batch, failures, n_fallbacks = (
        engine.performance_batch_physical_isolated(x))
    rows = [engine.performance_batch_physical_isolated(x[i:i + 1])
            for i in range(x.shape[0])]

    for field in dataclasses.fields(BatchPerformance):
        if field.name == "frequency":
            continue
        np.testing.assert_array_equal(
            getattr(batch, field.name),
            np.concatenate([getattr(row[0], field.name) for row in rows]))
    assert ([_failure_key(f) for f in failures]
            == [_failure_key(row[1][0]) for row in rows])
    assert [i for i, f in enumerate(failures) if f is not None] == sick
    assert n_fallbacks == sum(row[2] for row in rows) == 0


def test_scalar_rescue_in_a_later_block_decodes_its_own_row(monkeypatch,
                                                            template):
    """A row rescued by the scalar path in the second block is rebuilt
    from its own design vector, not from the block-local index."""
    engine = CompiledTemplate(template, design_grid(5), stability_grid(6),
                              verify=False)
    x = engine._to_physical(np.random.default_rng(8).random((70, N_VARS)))
    reference = engine.performance_batch_physical(x)
    plan = engine._plan
    real = plan.solve_rows

    def poisoned(coeffs, n_batch):
        out = real(coeffs, n_batch)
        if n_batch == 6:  # the second block: rows 64..69
            out = np.array(out)
            out[2] = np.nan  # row 66
        return out

    monkeypatch.setattr(plan, "solve_rows", poisoned)
    batch, failures, n_fallbacks = (
        engine.performance_batch_physical_isolated(x))
    assert all(f is None for f in failures)
    assert n_fallbacks == 1
    healthy = np.arange(70) != 66
    for name in ("nf_db", "gt_db", "mu_min", "ids"):
        np.testing.assert_array_equal(getattr(batch, name)[healthy],
                                      getattr(reference, name)[healthy])
        np.testing.assert_allclose(getattr(batch, name)[66],
                                   getattr(reference, name)[66],
                                   rtol=1e-9, atol=1e-9)


# ----------------------------------------------------------------------
# surrogate
# ----------------------------------------------------------------------

class TestQuadraticSurrogate:
    def test_raises_before_ready(self):
        surrogate = QuadraticSurrogate(n_vars=2, n_outputs=1, min_fit=8)
        surrogate.observe(np.zeros((4, 2)), np.zeros((4, 1)))
        assert not surrogate.ready
        with pytest.raises(RuntimeError, match="observations"):
            surrogate.predict(np.zeros((1, 2)))

    def test_recovers_an_exact_quadratic(self):
        rng = np.random.default_rng(11)
        x = rng.random((60, 2))
        y = (1.0 + 2.0 * x[:, 0] - x[:, 1] + 0.5 * x[:, 0] * x[:, 1]
             + x[:, 1] ** 2)[:, None]
        surrogate = QuadraticSurrogate(n_vars=2, n_outputs=1, min_fit=8)
        surrogate.observe(x, y)
        probe = rng.random((10, 2))
        truth = (1.0 + 2.0 * probe[:, 0] - probe[:, 1]
                 + 0.5 * probe[:, 0] * probe[:, 1] + probe[:, 1] ** 2)
        np.testing.assert_allclose(surrogate.predict(probe)[:, 0], truth,
                                   atol=1e-4)

    def test_history_is_fifo_capped(self):
        surrogate = QuadraticSurrogate(n_vars=1, n_outputs=1, min_fit=4,
                                       max_history=10)
        surrogate.observe(np.arange(25.0)[:, None],
                          np.arange(25.0)[:, None])
        assert len(surrogate) == 10
        assert surrogate.state()["x"][0, 0] == 15.0  # oldest dropped

    def test_state_round_trip_is_bit_identical(self):
        rng = np.random.default_rng(3)
        a = QuadraticSurrogate(n_vars=3, n_outputs=2, min_fit=8)
        a.observe(rng.random((20, 3)), rng.random((20, 2)))
        b = QuadraticSurrogate(n_vars=3, n_outputs=2, min_fit=8)
        b.restore(a.state())
        probe = rng.random((5, 3))
        np.testing.assert_array_equal(a.predict(probe), b.predict(probe))


def test_robust_score_orders_as_expected():
    good = robust_score(0.6, 14.0, 1.0)
    worse_nf = robust_score(0.8, 14.0, 1.0)
    worse_yield = robust_score(0.6, 14.0, 0.5)
    assert good < worse_nf and good < worse_yield


# ----------------------------------------------------------------------
# the evaluator
# ----------------------------------------------------------------------

class TestRobustEvaluator:
    def test_batch_shapes_and_ranges(self, template):
        evaluator = _evaluator(template)
        unit_x = np.full((3, N_VARS), 0.5)
        figures = evaluator.evaluate_batch(unit_x)
        assert len(figures) == 3
        assert np.all((figures.yield_fraction >= 0.0)
                      & (figures.yield_fraction <= 1.0))
        assert np.all(np.isfinite(figures.nf_worst_db))
        assert not np.any(figures.screened)  # no screening configured
        assert evaluator.n_sweeps == 3
        assert evaluator.n_corner_evals == 3 * evaluator.corners.n_corners

    def test_screening_activates_and_is_journaled(self, template, journal):
        evaluator = _evaluator(template, screen_fraction=0.5,
                               min_screen_history=8)
        rng = np.random.default_rng(0)
        evaluator.evaluate_batch(rng.random((8, N_VARS)))   # warmup
        figures = evaluator.evaluate_batch(rng.random((8, N_VARS)))
        assert evaluator.n_screened == 4
        assert int(np.sum(figures.screened)) == 4
        # screened rows carry clipped predictions, swept rows real data
        assert np.all(figures.yield_fraction[figures.screened] <= 1.0)
        decisions = [r for r in journal()
                     if r["event"] == "screen_decision"]
        assert [d["mode"] for d in decisions] == ["warmup", "surrogate"]
        assert decisions[1]["n_full"] == 4
        assert decisions[1]["n_screened"] == 4
        assert decisions[1]["history"] == 8

    def test_screen_false_forces_a_full_sweep(self, template):
        evaluator = _evaluator(template, screen_fraction=0.5,
                               min_screen_history=8)
        rng = np.random.default_rng(1)
        evaluator.evaluate_batch(rng.random((8, N_VARS)))
        figures = evaluator.evaluate_batch(rng.random((4, N_VARS)),
                                           screen=False)
        assert not np.any(figures.screened)
        assert evaluator.n_screened == 0

    def test_invalid_screen_fraction_rejected(self, template):
        with pytest.raises(ValueError, match="screen_fraction"):
            _evaluator(template, screen_fraction=0.0)

    def test_poison_corner_quarantines_healthy_stay_bit_identical(
            self, template):
        healthy = CornerSet.bias()
        poison_offset = np.zeros((1, N_VARS))
        poison_offset[0, BIAS_VARS[0]] = -5.0  # drives Vgs unphysical
        poison = CornerSet(("poison",), np.ones((1, N_VARS)), poison_offset)
        unit_x = np.full((1, N_VARS), 0.5)

        clean = _evaluator(template, corners=healthy)
        sick = _evaluator(template, corners=healthy + poison)
        f_clean = clean.evaluate_batch(unit_x)
        f_sick = sick.evaluate_batch(unit_x)

        assert f_clean.n_quarantined[0] == 0
        assert f_sick.n_quarantined[0] == 1
        # worst-case figures over the healthy corners are bit-identical
        assert f_sick.nf_worst_db[0] == f_clean.nf_worst_db[0]
        assert f_sick.gt_worst_db[0] == f_clean.gt_worst_db[0]
        assert f_sick.mu_worst[0] == f_clean.mu_worst[0]
        # the quarantined corner counts against yield
        assert f_sick.yield_fraction[0] == pytest.approx(
            f_clean.yield_fraction[0] * len(healthy) / (len(healthy) + 1))

    def test_all_corners_quarantined_yields_penalty_figures(self, template):
        offsets = np.zeros((2, N_VARS))
        offsets[:, BIAS_VARS[0]] = -5.0
        all_poison = CornerSet(("p0", "p1"), np.ones((2, N_VARS)), offsets)
        evaluator = _evaluator(template, corners=all_poison)
        figures = evaluator.evaluate_batch(np.full((1, N_VARS), 0.5))
        assert figures.yield_fraction[0] == 0.0
        assert figures.nf_worst_db[0] == PENALTY_NF_DB
        assert figures.gt_worst_db[0] == PENALTY_GT_DB
        assert figures.mu_worst[0] == 0.0
        assert figures.n_quarantined[0] == 2

    def test_sick_corner_across_a_block_boundary_stays_with_its_candidate(
            self, template):
        # 10 tolerance corners + 1 poison corner + 7 Monte-Carlo trials
        # = 18 corners: 5 candidates stack 90 rows, and candidate 3's
        # rows 54..71 straddle the engine's 64-row block boundary, its
        # poison corner on row 64.  The poison pulls Vgs down by 2.3 V:
        # still biased (gds > 0) from Vgs = 0.548 V, cut off (gds = 0,
        # a bad bias) from candidate 3's Vgs = 0.35 V.
        poison_offset = np.zeros((1, N_VARS))
        poison_offset[0, BIAS_VARS[0]] = -2.3
        corners = CornerSet.from_tolerances() + CornerSet(
            ("poison",), np.ones((1, N_VARS)), poison_offset)

        def make():
            return _evaluator(template, corners=corners, n_mc_trials=7)

        unit_x = np.random.default_rng(4).uniform(0.2, 0.8, (5, N_VARS))
        unit_x[:, BIAS_VARS[0]] = 0.6
        unit_x[3, BIAS_VARS[0]] = 0.0
        stacked = make()
        assert stacked.corners.n_corners == 18
        figures = stacked.evaluate_batch(unit_x)
        assert figures.n_quarantined.tolist() == [0, 0, 0, 1, 0]
        assert stacked.n_sweeps == 5
        assert stacked.n_corner_evals == 90
        for i in range(unit_x.shape[0]):
            alone = make().evaluate_batch(unit_x[i:i + 1])
            for name in ("yield_fraction", "nf_worst_db", "gt_worst_db",
                         "mu_worst", "n_quarantined"):
                assert getattr(figures, name)[i] == getattr(alone, name)[0]

    def test_state_restore_is_bit_for_bit(self, template):
        a = _evaluator(template, n_mc_trials=4, seed=0,
                       screen_fraction=0.5, min_screen_history=8)
        rng = np.random.default_rng(2)
        a.evaluate_batch(rng.random((8, N_VARS)))
        a.evaluate_batch(rng.random((4, N_VARS)))
        saved = a.state()

        # a different seed proves restore overrides construction state
        b = _evaluator(template, n_mc_trials=4, seed=99,
                       screen_fraction=0.5, min_screen_history=8)
        b.restore(saved)
        assert b.corners.names == a.corners.names
        np.testing.assert_array_equal(b.corners.scale, a.corners.scale)
        assert b.n_sweeps == a.n_sweeps
        probe = rng.random((6, N_VARS))
        fa = a.evaluate_batch(probe)
        fb = b.evaluate_batch(probe)
        np.testing.assert_array_equal(fa.yield_fraction, fb.yield_fraction)
        np.testing.assert_array_equal(fa.nf_worst_db, fb.nf_worst_db)
        np.testing.assert_array_equal(fa.screened, fb.screened)


class TestRobustStateSink:
    class _Record:
        def __init__(self, extra):
            self.extra = extra

    def test_names_the_robust_columns_and_forwards(self, template):
        seen = []
        sink = RobustStateSink(_evaluator(template), inner=seen.append)
        record = self._Record({"min_f0": 0.71, "min_f2": -0.875})
        sink(record)
        assert record.extra["nf_worst_best"] == pytest.approx(0.71)
        assert record.extra["yield_best"] == pytest.approx(0.875)
        assert seen == [record]

    def test_non_robust_state_passes_through_to_inner(self, template):
        class Inner:
            def __init__(self):
                self.restored = None

            def state(self):
                return {"inner": True}

            def restore(self, state):
                self.restored = state

        inner = Inner()
        sink = RobustStateSink(_evaluator(template), inner=inner)
        state = sink.state()
        assert "robust" in state and state["inner"] == {"inner": True}
        sink.restore({"legacy": 1})  # telemetry from a non-robust run
        assert inner.restored == {"legacy": 1}


# ----------------------------------------------------------------------
# the robust problem + NSGA-II
# ----------------------------------------------------------------------

class TestRobustProblem:
    def test_shape_and_names(self, template):
        problem = build_robust_problem(
            template, evaluator=_evaluator(template))
        x = np.full((2, N_VARS), 0.5)
        assert problem.n_objectives == 3
        objectives, constraints = problem.evaluate(x)
        assert objectives.shape == (2, 3)
        assert constraints.shape == (2, 5)
        assert problem.objective_names == ("NFworst_dB", "-GTworst_dB",
                                           "-yield")

    def test_memo_shares_one_sweep_per_point(self, template):
        # The optimizers' counting memo keeps a point's constraints
        # from the sweep that gave its objectives.
        evaluator = _evaluator(template)
        counter = _CountedObjectives(
            build_robust_problem(template, evaluator=evaluator))
        x = np.full(N_VARS, 0.5)
        counter(x)
        counter.constraints(x)  # same point: served from the memo
        assert evaluator.n_sweeps == 1
        counter(np.full(N_VARS, 0.4))
        assert evaluator.n_sweeps == 2


class _KillAfterBatches:
    """``evaluate`` wrapper that interrupts after n calls."""

    def __init__(self, fn, n_calls):
        self._fn = fn
        self._remaining = int(n_calls)

    def __call__(self, x):
        self._remaining -= 1
        if self._remaining < 0:
            raise KeyboardInterrupt("simulated kill")
        return self._fn(x)


class TestRobustNsga2:
    def _pieces(self, template, kill_after=None):
        evaluator = _evaluator(template, corners=CornerSet.bias(),
                               n_mc_trials=4, seed=0,
                               screen_fraction=0.5, min_screen_history=12)
        problem = build_robust_problem(template, evaluator=evaluator)
        if kill_after is not None:
            problem.evaluate = _KillAfterBatches(problem.evaluate,
                                                 kill_after)
        return evaluator, problem

    def test_front_smoke(self, template):
        evaluator, problem = self._pieces(template)
        result = nsga2(problem, population_size=8, n_generations=3, seed=0,
                       on_generation=RobustStateSink(evaluator))
        assert result.objectives.shape[1] == 3
        assert np.all(result.objectives[:, 2] >= -1.0)  # -yield in [-1, 0]
        keep = pareto_filter(result.objectives)
        assert len(keep) == result.objectives.shape[0]
        assert evaluator.n_screened > 0  # the screen actually engaged

    def test_kill_and_resume_bit_for_bit(self, template):
        kwargs = dict(population_size=8, n_generations=6, seed=5)
        ev_clean, problem_clean = self._pieces(template)
        clean = nsga2(problem_clean, on_generation=RobustStateSink(ev_clean),
                      **kwargs)

        store = MemoryCheckpointStore()
        ev_killed, problem_killed = self._pieces(template, kill_after=4)
        with pytest.raises(KeyboardInterrupt):
            nsga2(problem_killed, checkpoint_store=store, checkpoint_every=1,
                  on_generation=RobustStateSink(ev_killed), **kwargs)
        assert store.load() is not None

        ev_resume, problem_resume = self._pieces(template)
        resumed = nsga2(problem_resume, checkpoint_store=store,
                        checkpoint_every=1,
                        on_generation=RobustStateSink(ev_resume), **kwargs)
        np.testing.assert_array_equal(resumed.x, clean.x)
        np.testing.assert_array_equal(resumed.objectives, clean.objectives)
        assert resumed.nfev == clean.nfev
        assert resumed.health.resumed_at is not None
        assert store.load() is None


# ----------------------------------------------------------------------
# the scalar objective: pickling, faults, the service job
# ----------------------------------------------------------------------

class TestRobustScalarObjective:
    def test_pickle_round_trip_is_value_identical(self):
        objective = RobustScalarObjective(n_mc_trials=2, n_band=5,
                                          n_guard=6)
        clone = pickle.loads(pickle.dumps(objective))
        x = np.full(N_VARS, 0.5)
        assert clone(x) == objective(x)

    def test_de_absorbs_injected_faults(self):
        objective = RobustScalarObjective(n_mc_trials=2, n_band=5,
                                          n_guard=6,
                                          gt_ship_limit_db=11.0)
        injector = FaultInjector(objective, p_raise=0.15, p_nan=0.1, seed=3)
        result = differential_evolution(
            injector, np.zeros(N_VARS), np.ones(N_VARS),
            population_size=6, max_iterations=4, seed=1)
        assert np.isfinite(result.fun)
        assert injector.n_injected > 0
        assert result.health.n_failures == injector.n_injected

    def test_service_job_runs_to_done(self, tmp_path):
        from repro.service import JobService, JobSpec, ServiceClient

        root = str(tmp_path / "svc")
        client = ServiceClient(root)
        job = client.submit(JobSpec(
            objective="robust.optimize",
            objective_params={"n_trials": 2, "gt_ship_limit_db": 11.0},
            budget={"population_size": 6, "max_iterations": 3},
            seed=1,
        ))
        with JobService(root, slots=1) as service:
            record = service.wait(job.job_id, timeout=120.0)
        assert record.state == "done"
        assert np.isfinite(record.result["fun"])


# ----------------------------------------------------------------------
# obs integration: yield columns in summaries
# ----------------------------------------------------------------------

class TestObsYieldColumns:
    def test_e12_journal_grows_yield_columns(self, tmp_path, capsys):
        import glob

        from repro.experiments import e12_robust_front
        from repro.obs.cli import main as obs_main
        from repro.obs.compare import summarize_journal

        root = str(tmp_path / "runs")
        e12_robust_front.run(population_size=8, n_generations=2,
                             n_trials=2, seed=0, n_band=5, n_guard=6,
                             record_to=root)
        journals = glob.glob(f"{root}/*/journal.jsonl")
        assert len(journals) == 1
        summary = summarize_journal(journals[0])
        assert summary.yield_fraction is not None
        assert 0.0 <= summary.yield_fraction <= 1.0
        assert summary.worst_case_nf_db is not None
        assert np.isfinite(summary.worst_case_nf_db)

        assert obs_main(["summary", journals[0]]) == 0
        out = capsys.readouterr().out
        assert "best yield" in out
        assert "worst-case NF [dB]" in out
