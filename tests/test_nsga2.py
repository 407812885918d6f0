"""NSGA-II tests (repro.optimize.nsga2)."""

import importlib

import numpy as np
import pytest

from repro.core.design import DesignFlow
from repro.core.objectives import DesignSpec
from repro.experiments.common import reference_device
from repro.optimize.nsga2 import _nondominated_sort, nsga2
from repro.optimize.pareto import pareto_filter
from toy_problems import pointwise_problem

# The package re-exports the function ``nsga2``, which shadows the
# module of the same name as an attribute of ``repro.optimize``.
nsga2_module = importlib.import_module("repro.optimize.nsga2")


# ----------------------------------------------------------------------
# reference: Deb's pairwise fast non-dominated sort, which the
# matrix sort must reproduce list for list
# ----------------------------------------------------------------------

def _reference_dominates(i, j, objectives, violations) -> bool:
    """Deb's rule: feasible beats infeasible; otherwise compare."""
    vi, vj = violations[i], violations[j]
    if vi <= 1e-12 and vj > 1e-12:
        return True
    if vi > 1e-12 and vj <= 1e-12:
        return False
    if vi > 1e-12 and vj > 1e-12:
        return vi < vj
    fi, fj = objectives[i], objectives[j]
    return bool(np.all(fi <= fj) and np.any(fi < fj))


def _reference_sort(objectives, violations):
    n = len(objectives)
    dominated_by = [[] for _ in range(n)]
    domination_count = np.zeros(n, dtype=int)
    fronts = [[]]
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            if _reference_dominates(i, j, objectives, violations):
                dominated_by[i].append(j)
            elif _reference_dominates(j, i, objectives, violations):
                domination_count[i] += 1
        if domination_count[i] == 0:
            fronts[0].append(i)
    current = 0
    while fronts[current]:
        next_front = []
        for i in fronts[current]:
            for j in dominated_by[i]:
                domination_count[j] -= 1
                if domination_count[j] == 0:
                    next_front.append(j)
        current += 1
        fronts.append(next_front)
    return fronts[:-1]


#: Violations straddling the 1e-12 feasibility threshold; drawn with
#: replacement, so equal violations occur.
FEASIBLE_VIOLATIONS = [0.0, 1e-12]
INFEASIBLE_VIOLATIONS = [2e-12, 0.5, 1.0, 1.0e9]
MIXES = {
    "feasible": FEASIBLE_VIOLATIONS,
    "infeasible": INFEASIBLE_VIOLATIONS,
    "mixed": FEASIBLE_VIOLATIONS + INFEASIBLE_VIOLATIONS,
}


def _random_population(rng, n, n_obj, violation_pool):
    if rng.random() < 0.7:
        # Integer-valued objectives: ties on single objectives.
        objectives = rng.integers(0, 4, size=(n, n_obj)).astype(float)
    else:
        objectives = rng.random((n, n_obj))
    violations = rng.choice(violation_pool, size=n)
    copies = n // 3
    if copies:
        # Duplicate rows, with and without their violations.
        src, dst = rng.integers(n, size=(2, copies))
        objectives[dst] = objectives[src]
        if rng.random() < 0.5:
            violations[dst] = violations[src]
    return objectives, violations


class TestNondominatedSort:
    @pytest.mark.parametrize("n_obj", [1, 2, 3])
    @pytest.mark.parametrize("mix", sorted(MIXES))
    def test_matches_pairwise_reference(self, mix, n_obj):
        rng = np.random.default_rng([n_obj, sorted(MIXES).index(mix)])
        sizes = [1, 2] + rng.integers(3, 40, size=30).tolist()
        for n in sizes:
            objectives, violations = _random_population(rng, n, n_obj,
                                                         MIXES[mix])
            assert (_nondominated_sort(objectives, violations)
                    == _reference_sort(objectives, violations))

    def test_later_front_ordered_by_last_dominator(self):
        # Rows 0 and 1 form the first front; 0 alone dominates 3 and
        # 1 alone dominates 2, so the second front is [3, 2].
        objectives = np.array([[0.0, 2.0], [2.0, 0.0], [3.0, 1.0],
                               [1.0, 3.0]])
        fronts = _nondominated_sort(objectives, np.zeros(4))
        assert fronts == [[0, 1], [3, 2]]
        assert fronts == _reference_sort(objectives, np.zeros(4))


class TestSortChangesNoResult:
    """The matrix sort leaves whole NSGA-II runs bit-identical."""

    @staticmethod
    def _assert_same_run(monkeypatch, make_problem, **kwargs):
        fast = nsga2(make_problem(), **kwargs)
        monkeypatch.setattr(nsga2_module, "_nondominated_sort",
                            _reference_sort)
        reference = nsga2(make_problem(), **kwargs)
        for name in ("x", "objectives", "violations"):
            np.testing.assert_array_equal(getattr(fast, name),
                                          getattr(reference, name))

    def test_constrained_biobjective(self, monkeypatch):
        self._assert_same_run(monkeypatch, constrained_biobjective,
                              population_size=30, n_generations=20, seed=0)

    def test_lna_problem(self, monkeypatch):
        # E12's relaxed nominal spec, so part of the population is
        # feasible and both branches of Deb's rule are taken.
        spec = DesignSpec(rl_spec_db=6.0, ripple_spec_db=5.0,
                          mu_margin=1.02)
        device = reference_device().small_signal
        self._assert_same_run(
            monkeypatch, lambda: DesignFlow(device, spec=spec).problem,
            population_size=16, n_generations=8, seed=7)


def zdt1_like(dim=5):
    """A ZDT1-style problem: front at g(x)=1, f2 = 1 - sqrt(f1)."""

    def objectives(x):
        f1 = x[0]
        g = 1.0 + 9.0 * np.mean(x[1:])
        f2 = g * (1.0 - np.sqrt(max(f1, 0.0) / g))
        return np.array([f1, f2])

    return pointwise_problem(
        objectives=objectives,
        n_objectives=2,
        lower=np.zeros(dim),
        upper=np.ones(dim),
    )


def constrained_biobjective():
    return pointwise_problem(
        objectives=lambda x: np.array([
            (x[0] - 1) ** 2 + x[1] ** 2,
            (x[0] + 1) ** 2 + x[1] ** 2,
        ]),
        n_objectives=2,
        lower=np.array([-3.0, -3.0]),
        upper=np.array([3.0, 3.0]),
        constraints=lambda x: np.array([0.25 - x[0]]),
    )


class TestNsga2:
    def test_converges_to_zdt1_front(self):
        result = nsga2(zdt1_like(), population_size=40, n_generations=60,
                       seed=0)
        front = result.feasible_front
        assert front.shape[0] >= 10
        # On the true front f2 = 1 - sqrt(f1): check mean deviation.
        deviation = front[:, 1] - (1.0 - np.sqrt(np.clip(front[:, 0], 0, 1)))
        assert np.mean(np.abs(deviation)) < 0.08

    def test_front_is_nondominated(self):
        result = nsga2(zdt1_like(), population_size=24, n_generations=20,
                       seed=1)
        front = result.objectives
        keep = pareto_filter(front)
        assert len(keep) == front.shape[0]

    def test_front_spreads(self):
        result = nsga2(zdt1_like(), population_size=40, n_generations=60,
                       seed=0)
        f1 = result.feasible_front[:, 0]
        assert f1.max() - f1.min() > 0.5  # crowding keeps diversity

    def test_deterministic_under_seed(self):
        a = nsga2(zdt1_like(), population_size=16, n_generations=10, seed=3)
        b = nsga2(zdt1_like(), population_size=16, n_generations=10, seed=3)
        np.testing.assert_array_equal(a.x, b.x)

    def test_constraints_respected(self):
        result = nsga2(constrained_biobjective(), population_size=30,
                       n_generations=40, seed=0)
        feasible = result.violations <= 1e-9
        assert np.any(feasible)
        assert np.all(result.x[feasible, 0] >= 0.25 - 1e-9)

    def test_bounds_respected(self):
        result = nsga2(zdt1_like(), population_size=16, n_generations=10,
                       seed=5)
        assert np.all(result.x >= 0.0) and np.all(result.x <= 1.0)

    def test_odd_population_rounded_up(self):
        result = nsga2(zdt1_like(), population_size=15, n_generations=5,
                       seed=0)
        assert result.nfev > 0

    def test_nfev_accounting(self):
        result = nsga2(zdt1_like(), population_size=16, n_generations=10,
                       seed=0)
        assert result.nfev == 16 + 10 * 16
