"""Condensed-solve contracts: sparse plan, rescue chain, isolation.

Companion to the random-circuit equivalence sweep — this file pins the
*contract* surface of the compiled engine's condensed solve: the
engine survives pickling, the paper's design pipeline agrees with the
scalar oracle, guards sample the reduced matrix, rows the condensed
batch cannot solve are rescued one at a time and then by the scalar
path, an uncondensable template is a ``CompileError``, and the plan
has one numeric strategy: every candidate's reduced system is
refactorized in full, with no update or residual-tolerance knob.
"""

import pickle

import numpy as np
import pytest

from repro.analysis.sparsemna import MutableGroup, PatternError, build_plan
from repro.core.amplifier import AmplifierTemplate, DesignVariables
from repro.core.engine import CompiledTemplate, CompileError
from repro.core.objectives import (
    DesignSpec,
    LnaEvaluator,
    build_lna_problem,
)
from repro.experiments.common import reference_device
from repro.guards.modes import guard_mode
from repro.obs.metrics import Metrics, get_metrics, set_metrics


@pytest.fixture()
def fresh_metrics():
    previous = get_metrics()
    metrics = Metrics()
    set_metrics(metrics)
    yield metrics
    set_metrics(previous)


@pytest.fixture(scope="module")
def lna_template():
    return AmplifierTemplate(reference_device().small_signal)


@pytest.fixture(scope="module")
def sparse_engine(lna_template):
    return CompiledTemplate(lna_template, verify=False)


PORTS = np.array([0, 1])


# ----------------------------------------------------------------------
# pickling and the scalar oracle
# ----------------------------------------------------------------------

@pytest.mark.parametrize("legacy_solver", [None, "sparse", "dense"])
def test_engine_pickle_round_trips_solver(lna_template, legacy_solver):
    """Round trips recompile the same engine.  States pickled while the
    engine still had a ``solver`` knob load too; the entry is ignored,
    so even an old ``"dense"`` state evaluates bit-identically."""
    engine = CompiledTemplate(lna_template, verify=False)
    state = engine.__getstate__()
    assert "solver" not in state
    if legacy_solver is None:
        clone = pickle.loads(pickle.dumps(engine))
    else:
        clone = CompiledTemplate.__new__(CompiledTemplate)
        clone.__setstate__(dict(state, solver=legacy_solver))
    pop = np.random.default_rng(3).random((4, len(DesignVariables.NAMES)))
    a = engine.performance_batch(pop)
    b = clone.performance_batch(pop)
    for name in ("nf_db", "gt_db", "s11_db", "s22_db", "mu_min", "ids"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))


def test_design_problem_agrees_across_tiers(lna_template):
    evaluator = LnaEvaluator(lna_template)
    problem = build_lna_problem(lna_template, evaluator=evaluator)
    spec = DesignSpec()
    pop = np.random.default_rng(17).random((64, len(DesignVariables.NAMES)))
    oracle = [lna_template.evaluate(DesignVariables.from_unit(x),
                                    evaluator.band_grid,
                                    evaluator.guard_grid)
              for x in pop]
    expected = [
        [[p.nf_max_db, -p.gt_min_db] for p in oracle],
        [[
            np.max(p.s11_db) + spec.rl_spec_db,
            np.max(p.s22_db) + spec.rl_spec_db,
            spec.mu_margin - p.mu_min,
            p.gt_ripple_db - spec.ripple_spec_db,
            (p.ids - spec.ids_max) / spec.ids_max,
        ] for p in oracle],
    ]
    for got, rows in zip(problem.evaluate(pop), expected):
        np.testing.assert_allclose(got, rows, rtol=1e-9, atol=1e-9)


# ----------------------------------------------------------------------
# guards + isolation on the sparse path
# ----------------------------------------------------------------------

def test_sparse_isolated_samples_conditioning_guard(fresh_metrics,
                                                    sparse_engine):
    pop = np.random.default_rng(5).random((4, len(DesignVariables.NAMES)))
    with guard_mode("warn"):
        batch, failures, n_fallbacks = (
            sparse_engine.performance_batch_isolated(pop)
        )
    assert all(f is None for f in failures)
    assert n_fallbacks == 0
    summary = fresh_metrics.histogram_summary("mna.condition_log10")
    assert summary["count"] >= 1
    # Healthy rows match the plain sparse batch path.
    plain = sparse_engine.performance_batch(pop)
    for name in ("nf_db", "gt_db", "mu_min"):
        np.testing.assert_allclose(getattr(batch, name),
                                   getattr(plain, name),
                                   rtol=1e-12, atol=1e-12)


def test_sparse_isolated_splices_scalar_rescue(monkeypatch, fresh_metrics,
                                               sparse_engine):
    """A row the condensed solve returns non-finite is re-evaluated by
    the scalar reference and spliced back — not penalized."""
    pop = np.random.default_rng(11).random((4, len(DesignVariables.NAMES)))
    reference = sparse_engine.performance_batch(pop)
    plan = sparse_engine._plan
    real = plan.solve_rows

    def poisoned(coeffs, n_batch):
        out = real(coeffs, n_batch)
        if n_batch == 4:
            out = np.array(out)
            out[1] = np.nan
        return out

    monkeypatch.setattr(plan, "solve_rows", poisoned)
    batch, failures, n_fallbacks = (
        sparse_engine.performance_batch_isolated(pop)
    )
    assert all(f is None for f in failures)
    assert n_fallbacks == 1
    assert fresh_metrics.counter("engine.scalar_fallbacks") == 1
    for name in ("nf_db", "gt_db", "mu_min"):
        # Rows 0/2/3 never left the condensed path.
        np.testing.assert_array_equal(getattr(batch, name)[[0, 2, 3]],
                                      getattr(reference, name)[[0, 2, 3]])
        np.testing.assert_allclose(getattr(batch, name)[1],
                                   getattr(reference, name)[1],
                                   rtol=1e-9, atol=1e-9)


def test_singular_batch_is_resolved_row_by_row(monkeypatch, fresh_metrics,
                                               sparse_engine):
    """A batch factorization that raises is re-solved one row at a time:
    healthy rows come out exactly as one-row calls, a row that raises on
    its own goes to the scalar reference."""
    pop = np.random.default_rng(23).random((5, len(DesignVariables.NAMES)))
    singles = [sparse_engine.performance_batch(pop[i:i + 1])
               for i in range(pop.shape[0])]
    plan = sparse_engine._plan
    real = plan.solve_rows
    bad_rstab = sparse_engine._candidate_values(
        sparse_engine._to_physical(pop[3:4]))[0]["Rstab"]

    def singular(coeffs, n_batch):
        if n_batch > 1 or np.array_equal(coeffs["Rstab"], bad_rstab):
            raise np.linalg.LinAlgError("Singular matrix")
        return real(coeffs, n_batch)

    monkeypatch.setattr(plan, "solve_rows", singular)
    batch, failures, n_fallbacks = (
        sparse_engine.performance_batch_isolated(pop)
    )
    assert all(f is None for f in failures)
    assert n_fallbacks == 1
    assert fresh_metrics.counter("mna.batch_refactorizations") == 1
    for i, single in enumerate(singles):
        for name in ("nf_db", "gt_db", "s11_db", "s22_db", "mu_min", "ids"):
            if i == 3:
                np.testing.assert_allclose(getattr(batch, name)[i],
                                           getattr(single, name)[0],
                                           rtol=1e-9, atol=1e-9)
            else:
                np.testing.assert_array_equal(getattr(batch, name)[i],
                                              getattr(single, name)[0])


def test_uncondensable_template_raises_compile_error(monkeypatch,
                                                     lna_template):
    def no_plan(*args, **kwargs):
        raise PatternError("constant internal block is singular")

    monkeypatch.setattr("repro.core.engine.build_plan", no_plan)
    with pytest.raises(CompileError, match="condensed"):
        CompiledTemplate(lna_template, verify=False)
    with pytest.raises(CompileError, match="condensed"):
        LnaEvaluator(lna_template)


# ----------------------------------------------------------------------
# one numeric strategy
# ----------------------------------------------------------------------

def test_plan_has_no_update_or_residual_knobs():
    """The low-rank update tier is gone: ``solve_rows`` always
    refactorizes, and neither its strategy nor a residual tolerance
    can be passed."""
    n_freq = 3
    base = np.tile(np.diag([0.2, 0.2, 0.1]).astype(complex), (n_freq, 1, 1))
    group = MutableGroup("g02", np.array([0, 2, 0, 2]),
                         np.array([0, 2, 2, 0]),
                         np.array([1.0, 1.0, -1.0, -1.0]))
    rhs = np.eye(3, 2, dtype=complex)
    args = (base, [group], PORTS, 50.0, rhs, [0, 1])
    plan = build_plan(*args)
    coeffs = {"g02": np.linspace(1e-3, 5e-2, 4)[:, None]
              * np.ones((1, n_freq))}
    assert plan.solve_rows(coeffs, 4).shape == (4, n_freq, 2, 2)
    with pytest.raises(TypeError):
        plan.solve_rows(coeffs, 4, update="full")
    with pytest.raises(TypeError):
        build_plan(*args, residual_tol=1e-10)
