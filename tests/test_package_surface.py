"""Deleted library surface stays deleted.

No experiment driver, service job or example ran ``epsilon_constraint``;
the E5/E6 comparison uses the weighted sum.  No workload took the sparse
plan's Woodbury update, so its residual tolerance is gone with it.
Every evaluation of ``LnaEvaluator`` and ``monte_carlo_yield`` runs the
compiled engine, so neither takes an ``engine=`` switch; the evaluator's
cache capacity is a class constant and its keys carry no template
fingerprint.  The condensed plan is the one batch MNA solve, so the
dense batched kernels and their residual histogram are gone, and
``monte_carlo_yield`` judges boards by the shipping limits alone, so it
takes no ``spec``.  No experiment, workload or example de-embedded a
fixture, so ``repro.rf.deembedding`` is gone.  A multi-objective
problem has one callable, ``evaluate``.
"""

import dataclasses
import importlib

import pytest

from repro.core.amplifier import AmplifierTemplate, DesignVariables
from repro.core.objectives import LnaEvaluator
from repro.core.tolerance import monte_carlo_yield

DELETED_NAMES = {
    "repro.optimize": ["epsilon_constraint"],
    "repro.optimize.scalarization": ["epsilon_constraint"],
    "repro.analysis.sparsemna": ["WOODBURY_RESIDUAL_TOL"],
    "repro.core.objectives": ["_stable_describe"],
    "repro.core.tolerance": ["_perturb"],
    "repro.analysis.conditioning": ["observe_residual"],
    "repro.rf": ["open_short_deembed", "split_thru", "thru_deembed"],
    "repro.optimize.goal_attainment": ["_constraint_rows"],
}

DENSE_BATCH_NAMES = ("BatchACResult", "solve_ac_batch", "solve_tensor_batch",
                     "solve_tensor_batch_isolated")


@pytest.mark.parametrize("package", sorted(DELETED_NAMES))
def test_deleted_names_are_gone(package):
    module = importlib.import_module(package)
    present = [name for name in DELETED_NAMES[package]
               if hasattr(module, name)
               or name in getattr(module, "__all__", ())]
    assert present == []


@pytest.mark.parametrize("package", ["repro.analysis.compiled",
                                     "repro.analysis"])
@pytest.mark.parametrize("name", DENSE_BATCH_NAMES)
def test_dense_batch_kernels_are_gone(package, name):
    with pytest.raises(ImportError):
        exec(f"from {package} import {name}", {})


@pytest.fixture(scope="module")
def template():
    from repro.experiments.common import reference_device

    return AmplifierTemplate(reference_device().small_signal)


@pytest.mark.parametrize("knob", [{"engine": "scalar"},
                                  {"engine": "compiled"},
                                  {"cache_size": 16}])
def test_lna_evaluator_takes_no_engine_or_cache_size(template, knob):
    with pytest.raises(TypeError):
        LnaEvaluator(template, **knob)


@pytest.mark.parametrize("engine", ["scalar", "batched"])
def test_monte_carlo_yield_takes_no_engine(template, engine):
    with pytest.raises(TypeError):
        monte_carlo_yield(template, DesignVariables(), n_trials=1,
                          engine=engine)


def test_lna_evaluator_cache_has_no_fingerprint():
    assert not hasattr(LnaEvaluator, "invalidate_cache")
    assert not hasattr(LnaEvaluator, "_compute_fingerprint")
    assert LnaEvaluator.CACHE_SIZE == 4096


def test_monte_carlo_yield_takes_no_spec(template):
    from repro.core.objectives import DesignSpec

    with pytest.raises(TypeError):
        monte_carlo_yield(template, DesignVariables(), n_trials=1,
                          spec=DesignSpec())


def test_deembedding_module_is_gone():
    with pytest.raises(ImportError):
        importlib.import_module("repro.rf.deembedding")


def test_problem_has_one_callable_field():
    from repro.optimize.goal_attainment import MultiObjectiveProblem

    fields = [f.name for f in dataclasses.fields(MultiObjectiveProblem)]
    assert fields == ["evaluate", "n_objectives", "lower", "upper",
                      "objective_names"]
    with pytest.raises(TypeError):
        MultiObjectiveProblem(objectives=lambda x: x, n_objectives=2,
                              lower=[0.0], upper=[1.0])
