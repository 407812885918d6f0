"""Per-candidate failure isolation in the solver and evaluation stack.

Covers the degradation chain bottom-up: the engine's isolated condensed
solve (rows that neither the condensed plan nor the scalar reference
can solve come back flagged with penalty figures, healthy rows
bit-identical), the compiled engine's bad-bias masking, and the
LnaEvaluator's penalty semantics (failures counted, logged, and never
cached as successes).
"""

import numpy as np
import pytest

from repro.analysis.dc import DcConvergenceError
from repro.analysis.sparsemna import build_plan
from repro.core.amplifier import (
    PENALTY_GT_DB,
    PENALTY_NF_DB,
    AmplifierPerformance,
    AmplifierTemplate,
    DesignVariables,
)
from repro.core.bands import design_grid, stability_grid
from repro.core.engine import CompiledTemplate
from repro.core.objectives import LnaEvaluator
from repro.experiments.common import reference_device
from repro.optimize.faults import (
    CATEGORY_BAD_BIAS,
    CATEGORY_DC,
    CATEGORY_SINGULAR,
)


# ----------------------------------------------------------------------
# the engine's isolated condensed solve
# ----------------------------------------------------------------------

PORTS = np.array([0, 1])
Z0 = 50.0
FIGURES = ("nf_db", "gt_db", "s11_db", "s22_db", "mu_min", "ids",
           "nf_max_db", "gt_min_db", "gt_ripple_db")
R_STAB = DesignVariables.NAMES.index("r_stab")


@pytest.fixture(scope="module")
def engine():
    return CompiledTemplate(AmplifierTemplate(reference_device().small_signal),
                            design_grid(5), stability_grid(6), verify=False)


def _physical_rows(engine, n_rows, seed):
    unit = np.random.default_rng(seed).random(
        (n_rows, len(DesignVariables.NAMES)))
    return engine._to_physical(unit)


def _make_singular(monkeypatch, engine, x, rows):
    """Rows *rows* of *x* become unsolvable: the condensed solve raises
    on any batch holding one of them, and so does the scalar reference."""
    bad_g = (1.0 / x[rows, R_STAB]).astype(complex)
    real_solve = engine._plan.solve_rows
    real_evaluate = engine.template.evaluate

    def solve_rows(coeffs, n_batch):
        if np.any(np.isin(coeffs["Rstab"][:, 0], bad_g)):
            raise np.linalg.LinAlgError("Singular matrix")
        return real_solve(coeffs, n_batch)

    def evaluate(design, band, guard):
        if design.r_stab in x[rows, R_STAB]:
            raise ValueError("singular circuit (floating node or "
                             "degenerate element)")
        return real_evaluate(design, band, guard)

    monkeypatch.setattr(engine._plan, "solve_rows", solve_rows)
    monkeypatch.setattr(engine.template, "evaluate", evaluate)


def test_isolated_matches_plain_solve_on_healthy_batch(engine):
    """On a healthy batch the isolated solve returns exactly the figures
    of one plain condensed solve: no row is re-solved or rescued."""
    x = _physical_rows(engine, 4, seed=1)
    admittances, scalar_psds, passive_psd, ids, bad_bias, _ = (
        engine._candidate_values(x))
    assert not np.any(bad_bias)
    s, cy_band = engine._sparse_figures(
        engine._plan.solve_rows(admittances, 4), 4, scalar_psds,
        passive_psd)
    plain = engine._figures(s, cy_band, ids)
    batch, failures, n_fallbacks = (
        engine.performance_batch_physical_isolated(x))
    assert failures == [None] * 4
    assert n_fallbacks == 0
    for name in FIGURES:
        assert np.array_equal(getattr(batch, name), getattr(plain, name))


def test_isolated_does_not_mutate_input_tensor(monkeypatch, engine):
    """Neither the candidate rows nor the compiled base and condensed
    tensors change, also when the batch is re-solved row by row."""
    x = _physical_rows(engine, 4, seed=2)
    plan = engine._plan
    before = [x.tobytes(), engine._base.tobytes(), plan._schur_t.tobytes(),
              plan._rhs_red.tobytes()]
    engine.performance_batch_physical_isolated(x)
    _make_singular(monkeypatch, engine, x, [2])
    engine.performance_batch_physical_isolated(x)
    assert [x.tobytes(), engine._base.tobytes(), plan._schur_t.tobytes(),
            plan._rhs_red.tobytes()] == before


def test_isolated_flags_singular_rows_healthy_rows_bit_identical(
        monkeypatch, engine):
    x = _physical_rows(engine, 5, seed=3)
    healthy = [0, 2, 4]
    singles = [engine.performance_batch_physical(x[i:i + 1])
               for i in healthy]
    _make_singular(monkeypatch, engine, x, [1, 3])
    batch, failures, n_fallbacks = (
        engine.performance_batch_physical_isolated(x))
    assert n_fallbacks == 0
    assert [f is not None for f in failures] == [False, True, False, True,
                                                 False]
    for i in (1, 3):
        assert failures[i].category == CATEGORY_SINGULAR
        assert np.array_equal(failures[i].x, x[i])  # the physical row
        assert batch.nf_max_db[i] == PENALTY_NF_DB
        assert batch.gt_min_db[i] == PENALTY_GT_DB
        assert batch.mu_min[i] == 0.0
    # Healthy rows equal one-row solves: a singular neighbour does not
    # change their roundoff.
    for i, single in zip(healthy, singles):
        for name in FIGURES:
            assert np.array_equal(getattr(batch, name)[i],
                                  getattr(single, name)[0]), name


def test_isolated_all_rows_singular(monkeypatch, engine):
    x = _physical_rows(engine, 3, seed=4)
    _make_singular(monkeypatch, engine, x, [0, 1, 2])
    batch, failures, n_fallbacks = (
        engine.performance_batch_physical_isolated(x))
    assert n_fallbacks == 0
    assert [f.category for f in failures] == [CATEGORY_SINGULAR] * 3
    assert np.all(batch.nf_max_db == PENALTY_NF_DB)
    assert np.all(batch.gt_min_db == PENALTY_GT_DB)
    assert np.all(batch.mu_min == 0.0)


def test_isolated_shape_validation():
    """The batch solve takes its admittance tensor when the plan is
    built, and rejects one that is not ``(F, n, n)`` there."""
    rhs = np.eye(4, 2, dtype=complex)
    for shape in ((2, 3, 4), (2, 3, 4, 4)):
        with pytest.raises(ValueError, match=r"\(F, n, n\)"):
            build_plan(np.zeros(shape, dtype=complex), [], PORTS, Z0, rhs,
                       [0, 1])


# ----------------------------------------------------------------------
# compiled engine: bad-bias masking and penalty rows
# ----------------------------------------------------------------------

class BiasFaultDcModel:
    """Delegates to the real DC model, but reports a non-saturated
    device (gds < 0) below a vgs threshold."""

    def __init__(self, inner, vgs_threshold):
        self._inner = inner
        self._threshold = float(vgs_threshold)

    def gds(self, vgs, vds):
        g = np.asarray(self._inner.gds(vgs, vds), dtype=float)
        return np.where(np.asarray(vgs) < self._threshold, -1e-3, g)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class ExplodingDcModel:
    """Raises DcConvergenceError whenever the bias point is queried."""

    def __init__(self, inner):
        self._inner = inner

    def gm(self, vgs, vds):
        raise DcConvergenceError("Newton iteration diverged")

    def __getattr__(self, name):
        return getattr(self._inner, name)


class HotBiasDcModel:
    """Delegates to the real DC model, but its bias solve diverges —
    for the whole call — whenever a queried row has vgs above a
    threshold."""

    def __init__(self, inner, vgs_threshold=0.55):
        self._inner = inner
        self._threshold = float(vgs_threshold)

    def gm(self, vgs, vds):
        if np.any(np.asarray(vgs) > self._threshold):
            raise DcConvergenceError("Newton iteration diverged")
        return self._inner.gm(vgs, vds)

    def __getattr__(self, name):
        return getattr(self._inner, name)


@pytest.fixture()
def template():
    # reference_device() is lru_cached, so the small-signal device is
    # shared process-wide; restore its DC model after each test no
    # matter which fault wrapper the test installed.
    device = reference_device().small_signal
    honest = device.dc_model
    yield AmplifierTemplate(device)
    device.dc_model = honest


@pytest.fixture(scope="module")
def grids():
    return design_grid(5), stability_grid(6)


def test_engine_isolated_penalizes_bad_bias_rows(template, grids):
    band, guard = grids
    compiled = CompiledTemplate(template, band, guard)
    n = len(DesignVariables.NAMES)
    unit = np.tile(np.full(n, 0.5), (4, 1))
    unit[1, 0] = 0.0   # vgs at the box floor (0.35 V) -> flagged bad
    unit[3, 0] = 0.02
    reference = compiled.performance_batch(unit)

    # Patch after compilation so _verify ran against the honest model.
    template.device.dc_model = BiasFaultDcModel(template.device.dc_model,
                                                vgs_threshold=0.40)
    batch, failures, n_fallbacks = compiled.performance_batch_isolated(unit)
    assert n_fallbacks == 0
    assert [f is None for f in failures] == [True, False, True, False]
    assert failures[1].category == CATEGORY_BAD_BIAS
    assert failures[3].category == CATEGORY_BAD_BIAS
    # Penalty rows carry the documented worst-case figures.
    assert batch.nf_max_db[1] == PENALTY_NF_DB
    assert batch.gt_min_db[3] == PENALTY_GT_DB
    assert batch.mu_min[1] == 0.0
    # Healthy rows are bit-identical to the unpatched batch path.
    for name in ("nf_db", "gt_db", "s11_db", "s22_db", "mu_min", "ids"):
        got = getattr(batch, name)
        expected = getattr(reference, name)
        assert np.array_equal(got[0], expected[0])
        assert np.array_equal(got[2], expected[2])


def test_plain_batch_penalizes_bad_bias_rows(template, grids):
    band, guard = grids
    compiled = CompiledTemplate(template, band, guard)
    n = len(DesignVariables.NAMES)
    unit = np.tile(np.full(n, 0.5), (3, 1))
    unit[2, 1] = 0.7
    healthy = compiled.performance_batch(unit[[0, 2]])
    unit[1, 0] = 0.0   # vgs at the box floor -> flagged bad
    template.device.dc_model = BiasFaultDcModel(template.device.dc_model,
                                                vgs_threshold=0.40)
    batch = compiled.performance_batch(unit)
    assert batch.nf_max_db[1] == PENALTY_NF_DB
    assert batch.gt_min_db[1] == PENALTY_GT_DB
    assert batch.mu_min[1] == 0.0
    for name in ("nf_db", "gt_db", "s11_db", "s22_db", "mu_min", "ids",
                 "nf_max_db", "gt_min_db", "gt_ripple_db"):
        assert np.array_equal(getattr(batch, name)[[0, 2]],
                              getattr(healthy, name)), name


def test_service_metric_scores_unevaluable_rows_inf(template):
    from repro.service.jobs import build_objective

    metric = build_objective("lna.metric", {"metric": "gt_ripple_db"})
    template.device.dc_model = BiasFaultDcModel(template.device.dc_model,
                                                vgs_threshold=0.40)
    n = len(DesignVariables.NAMES)
    unit = np.tile(np.full(n, 0.5), (2, 1))
    unit[1, 0] = 0.0
    values = metric["objective_batch"](unit)
    assert np.isfinite(values[0])
    assert values[1] == np.inf
    assert metric["objective"](unit[1]) == np.inf


def test_dc_convergence_error_propagates_through_scalar_evaluate(
        template, grids):
    band, guard = grids
    template.device.dc_model = ExplodingDcModel(template.device.dc_model)
    with pytest.raises(DcConvergenceError):
        template.evaluate(DesignVariables(), band, guard)


# ----------------------------------------------------------------------
# LnaEvaluator: penalties counted, logged, never cached
# ----------------------------------------------------------------------

def test_evaluator_scalar_absorbs_dc_failure_and_does_not_cache(
        template, grids):
    band, guard = grids
    evaluator = LnaEvaluator(template, band, guard)
    # After compilation, so its verification ran on the honest model.
    template.device.dc_model = ExplodingDcModel(template.device.dc_model)

    x = np.full(len(DesignVariables.NAMES), 0.5)
    perf = evaluator.performance(x)
    assert perf.is_failure
    assert perf.failure.category == CATEGORY_DC
    assert perf.nf_max_db == PENALTY_NF_DB
    assert evaluator.health.failures == {CATEGORY_DC: 1}
    assert len(evaluator.failure_log) == 1
    assert evaluator.n_solves == 1

    # Same point again: the failure was not cached, so it re-attempts.
    evaluator.performance(x)
    assert evaluator.n_solves == 2
    assert evaluator.cache_hits == 0
    assert evaluator.health.failures == {CATEGORY_DC: 2}


def test_evaluator_recovers_after_transient_failure(template, grids):
    band, guard = grids
    evaluator = LnaEvaluator(template, band, guard)
    honest = template.device.dc_model
    template.device.dc_model = ExplodingDcModel(honest)
    x = np.full(len(DesignVariables.NAMES), 0.5)
    assert evaluator.performance(x).is_failure

    template.device.dc_model = honest  # the "transient" clears
    recovered = evaluator.performance(x)
    assert not recovered.is_failure
    assert np.all(np.isfinite(recovered.nf_db))
    # ... and the healthy result does get cached.
    again = evaluator.performance(x)
    assert again is recovered
    assert evaluator.cache_hits == 1


# Unit-box vgs 0.8 is 0.614 V and 0.2 is 0.416 V: above and below the
# HotBiasDcModel threshold of 0.55 V.
_HOT_ROWS = (1, 3)


def _hot_population():
    unit = np.random.default_rng(7).random((5, len(DesignVariables.NAMES)))
    unit[:, 0] = 0.2
    unit[list(_HOT_ROWS), 0] = 0.8
    return unit


def test_device_model_exception_isolates_its_rows(template, grids):
    band, guard = grids
    evaluator = LnaEvaluator(template, band, guard)
    unit = _hot_population()
    honest = CompiledTemplate(template, band, guard).performance_batch(unit)
    template.device.dc_model = HotBiasDcModel(template.device.dc_model)

    perfs = evaluator.performance_batch(unit)
    for i, perf in enumerate(perfs):
        if i in _HOT_ROWS:
            assert perf.is_failure
            assert perf.failure.category == CATEGORY_DC
            assert "Newton iteration diverged" in perf.failure.message
            assert perf.nf_max_db == PENALTY_NF_DB
            assert perf.gt_min_db == PENALTY_GT_DB
        else:
            assert not perf.is_failure
            for name in ("nf_db", "gt_db", "s11_db", "s22_db", "mu_min",
                         "ids", "nf_max_db", "gt_min_db", "gt_ripple_db"):
                assert np.array_equal(getattr(perf, name),
                                      getattr(honest, name)[i]), name
    assert evaluator.health.failures == {CATEGORY_DC: len(_HOT_ROWS)}


def test_device_model_exception_quarantines_robust_corners(template):
    from repro.optimize.robust import CornerSet, RobustEvaluator

    band, guard = design_grid(5), stability_grid(6)
    corners = CornerSet.bias(vgs_delta=0.01)
    honest = RobustEvaluator(template, corners=corners, band_grid=band,
                             guard_grid=guard, gt_ship_limit_db=11.0)
    hot = RobustEvaluator(template, corners=corners, band_grid=band,
                          guard_grid=guard, gt_ship_limit_db=11.0)
    unit = _hot_population()
    reference = honest.evaluate_batch(unit, screen=False)
    template.device.dc_model = HotBiasDcModel(template.device.dc_model)

    figures = hot.evaluate_batch(unit, screen=False)
    cool = [i for i in range(unit.shape[0]) if i not in _HOT_ROWS]
    hot_rows = list(_HOT_ROWS)
    for name in ("yield_fraction", "nf_worst_db", "gt_worst_db",
                 "mu_worst", "n_quarantined"):
        assert np.array_equal(getattr(figures, name)[cool],
                              getattr(reference, name)[cool]), name
    # Every corner of a hot candidate raised: penalty figures, no yield.
    assert np.all(figures.n_quarantined[hot_rows] == corners.n_corners)
    assert np.all(figures.yield_fraction[hot_rows] == 0.0)
    assert np.all(figures.nf_worst_db[hot_rows] == PENALTY_NF_DB)
    assert np.all(figures.gt_worst_db[hot_rows] == PENALTY_GT_DB)

    # The engine records each raising corner in the DC category.
    x = CompiledTemplate._to_physical(unit[hot_rows])
    _, failures, _ = hot._compiled.performance_batch_physical_isolated(
        np.vstack([corners.apply(row) for row in x]))
    assert [f.category for f in failures] == (
        [CATEGORY_DC] * (len(hot_rows) * corners.n_corners))


def test_evaluator_compiled_batch_mixes_penalty_and_healthy(
        template, grids):
    band, guard = grids
    evaluator = LnaEvaluator(template, band, guard)
    template.device.dc_model = BiasFaultDcModel(template.device.dc_model,
                                                vgs_threshold=0.40)
    n = len(DesignVariables.NAMES)
    unit = np.tile(np.full(n, 0.5), (3, 1))
    unit[1, 0] = 0.0
    perfs = evaluator.performance_batch(unit)
    assert not perfs[0].is_failure
    assert perfs[1].is_failure
    assert perfs[1].failure.category == CATEGORY_BAD_BIAS
    assert evaluator.health.failures == {CATEGORY_BAD_BIAS: 1}

    # Healthy results were cached; the failed one was not.
    perfs2 = evaluator.performance_batch(unit)
    assert evaluator.health.failures == {CATEGORY_BAD_BIAS: 2}
    assert perfs2[0] is perfs[0]


def test_evaluator_on_failure_knob_is_removed(template):
    with pytest.raises(TypeError):
        LnaEvaluator(template, on_failure="raise")


def test_penalty_performance_violates_every_constraint():
    grid = design_grid(5)
    perf = AmplifierPerformance.penalty(grid)
    assert perf.failure is None and not perf.is_failure
    assert perf.nf_max_db == PENALTY_NF_DB
    assert perf.gt_min_db == PENALTY_GT_DB
    assert perf.mu_min == 0.0
    assert np.all(perf.s11_db == 0.0)
    assert np.all(np.isfinite(perf.nf_db))
