"""Multi-objective problem formulation for the GNSS LNA.

The paper's trade-off is **noise figure vs transducer power gain**
over the composite 1.1-1.7 GHz band.  We minimize:

* ``f1 = max NF(f)``  [dB] over the design band, and
* ``f2 = -min GT(f)`` [dB] (maximizing the worst-case gain),

subject to the hard design constraints a shippable preamplifier must
satisfy:

* unconditional stability, ``mu >= mu_margin`` over 0.1-6 GHz;
* input and output return loss better than ``rl_spec_db`` in band;
* gain ripple below ``ripple_spec_db``;
* drain current below ``ids_max`` (the antenna unit is phantom-fed).

Every optimizer in experiment E5 consumes the same
:class:`~repro.optimize.goal_attainment.MultiObjectiveProblem` built
here, with one shared memoized evaluator so evaluation counts are
comparable.  That evaluator solves every candidate through the compiled
batched engine; ``AmplifierTemplate.evaluate`` is the scalar oracle the
tests hold it to.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.obs import journal as _obs_journal
from repro.obs import metrics as _obs_metrics
from repro.obs import tracer as _obs_tracer

from repro.core.amplifier import (
    AmplifierPerformance,
    AmplifierTemplate,
    DesignVariables,
)
from repro.core.bands import design_grid, stability_grid
from repro.core.engine import CompiledTemplate
from repro.optimize.faults import EvaluationFailure, RunHealth
from repro.optimize.goal_attainment import MultiObjectiveProblem
from repro.rf.frequency import FrequencyGrid

__all__ = ["DesignSpec", "LnaEvaluator", "build_lna_problem"]


@dataclass(frozen=True)
class DesignSpec:
    """Hard constraints of the preamplifier.

    The stability and ripple margins are deliberately tighter than the
    shipping requirement (mu > 1, ripple < 5 dB) so that snapping the
    optimized values to the E24 catalogue cannot push the built board
    out of spec.
    """

    rl_spec_db: float = 9.0        # min in-band return loss (both ports)
    ripple_spec_db: float = 4.0    # max in-band gain ripple
    mu_margin: float = 1.10        # unconditional stability margin
    ids_max: float = 80e-3         # supply budget [A]

    def constraints(self, s11_db: np.ndarray, s22_db: np.ndarray,
                    mu_min: np.ndarray, gt_ripple_db: np.ndarray,
                    ids: np.ndarray) -> np.ndarray:
        """The ``(B, 5)`` constraint values of a batch, ``<= 0`` when met.

        Takes ``(B, F)`` in-band return losses and ``(B,)`` stability,
        ripple and drain-current figures.
        """
        return np.column_stack([
            np.max(s11_db, axis=1) + self.rl_spec_db,   # S11 <= -RL
            np.max(s22_db, axis=1) + self.rl_spec_db,   # S22 <= -RL
            self.mu_margin - mu_min,                    # mu >= margin
            gt_ripple_db - self.ripple_spec_db,         # ripple <= spec
            (ids - self.ids_max) / self.ids_max,        # Ids <= budget
        ])


class LnaEvaluator:
    """Memoized map from a design vector to amplifier figures of merit.

    Every solve runs through the compiled batched engine
    (:class:`repro.core.engine.CompiledTemplate`); a template it cannot
    compile raises :class:`~repro.core.engine.CompileError`.  The
    template is stamped into the engine when the evaluator is built, so
    a template mutated in place needs a new evaluator.

    Objectives and constraints come from one record per design point
    (:func:`build_lna_problem`); the quantized-key LRU cache lets the
    multi-stage improved goal-attainment flow revisit earlier iterates
    and starts for free.  Keys quantize the unit
    vector to 12 decimals — far below the ~1.5e-8 finite-difference
    step, so distinct probe points never collide — and normalize
    ``-0.0`` to ``+0.0`` (their byte patterns differ).

    Failure isolation: a candidate whose solve raises
    (``DcConvergenceError``, singular matrices, bad bias) or produces
    non-finite figures yields the finite worst-case
    :meth:`AmplifierPerformance.penalty` record — carrying a structured
    :class:`EvaluationFailure` — instead of an exception.  Failures are
    counted by category in ``self.health``, logged (capped) in
    ``self.failure_log``, and **never cached**, so a transiently failing
    design point is re-attempted on revisit.

    Thread safety: ``DesignFlow(workers>1)`` calls one evaluator from
    several shard threads.  One lock guards the cache, the counters,
    ``health`` and ``failure_log``; each call takes it once for its
    lookups and once to store its results, and never holds it across
    a solve.
    """

    #: Entries the LRU store keeps.
    CACHE_SIZE = 4096

    def __init__(self, template: AmplifierTemplate,
                 band_grid: Optional[FrequencyGrid] = None,
                 guard_grid: Optional[FrequencyGrid] = None,
                 max_failure_log: int = 64):
        self.template = template
        self.band_grid = band_grid or design_grid(17)
        self.guard_grid = guard_grid or stability_grid(24)
        self.health = RunHealth()
        self.failure_log: List[EvaluationFailure] = []
        self.max_failure_log = int(max_failure_log)
        self.n_solves = 0
        self.cache_hits = 0
        self._cache: "OrderedDict[bytes, AmplifierPerformance]" = OrderedDict()
        self._lock = threading.Lock()
        self._compiled = CompiledTemplate(
            self.template, self.band_grid, self.guard_grid
        )

    def _key(self, unit_x: np.ndarray) -> bytes:
        quantized = np.round(np.asarray(unit_x, dtype=float), 12)
        # -0.0 and +0.0 compare equal but differ bytewise; fold them.
        quantized = quantized + 0.0
        return quantized.tobytes()

    def _store(self, keys: List[bytes], solved: List[AmplifierPerformance],
               n_fallbacks: int):
        """Count one call's solves and cache its healthy results."""
        with self._lock:
            self.n_solves += len(solved)
            self.health.engine_fallbacks += n_fallbacks
            for key, perf in zip(keys, solved):
                if not perf.is_failure:
                    self._remember(key, perf)
        _obs_metrics.inc("evaluator.solves", len(solved))

    def _remember(self, key: bytes, perf: AmplifierPerformance):
        # Caller holds self._lock.
        self._cache[key] = perf
        if len(self._cache) > self.CACHE_SIZE:
            self._cache.popitem(last=False)

    def _lookup(self, key: bytes) -> Optional[AmplifierPerformance]:
        # Caller holds self._lock.
        cached = self._cache.get(key)
        if cached is not None:
            self._cache.move_to_end(key)
            self.cache_hits += 1
            _obs_metrics.inc("evaluator.cache_hits")
        return cached

    def _penalty(self, failure: EvaluationFailure) -> AmplifierPerformance:
        with self._lock:
            self.health.record(failure.category)
            if len(self.failure_log) < self.max_failure_log:
                self.failure_log.append(failure)
        _obs_journal.emit("evaluation_failure",
                          category=failure.category,
                          message=str(failure.message)[:200])
        return AmplifierPerformance.penalty(self.band_grid, failure)

    def performance(self, unit_x: np.ndarray) -> AmplifierPerformance:
        """Figures of merit at a *unit-box* design vector."""
        return self.performance_batch(
            np.asarray(unit_x, dtype=float)[None, :])[0]

    def performance_batch(
        self, unit_x: np.ndarray
    ) -> List[AmplifierPerformance]:
        """Figures of merit for a ``(B, n_vars)`` stack of unit vectors.

        Cache hits are served from the LRU store; the misses are solved
        in **one** batched engine call (duplicate rows within the batch
        are solved once).
        """
        unit_x = np.atleast_2d(np.asarray(unit_x, dtype=float))
        results: List[Optional[AmplifierPerformance]] = [None] * len(unit_x)
        miss_rows: "OrderedDict[bytes, List[int]]" = OrderedDict()
        keys = [self._key(x) for x in unit_x]
        with self._lock:
            for i, key in enumerate(keys):
                cached = self._lookup(key)
                if cached is not None:
                    results[i] = cached
                else:
                    miss_rows.setdefault(key, []).append(i)
        if miss_rows:
            first_rows = [rows[0] for rows in miss_rows.values()]
            _obs_metrics.inc("evaluator.cache_misses", len(first_rows))
            with _obs_tracer.span("evaluator.performance_batch",
                                  batch=len(unit_x),
                                  misses=len(first_rows)):
                solved, n_fallbacks = self._solve_misses(unit_x[first_rows])
            self._store(list(miss_rows), solved, n_fallbacks)
            for rows, perf in zip(miss_rows.values(), solved):
                for i in rows:
                    results[i] = perf
        return results

    def _solve_misses(self, unit_x: np.ndarray
                      ) -> Tuple[List[AmplifierPerformance], int]:
        """Solve a call's de-duplicated cache misses in one engine call.

        Returns the solved records and the engine's fallback count.
        """
        batch, failures, n_fallbacks = (
            self._compiled.performance_batch_isolated(unit_x)
        )
        solved = [batch.candidate(k) if failure is None
                  else self._penalty(failure)
                  for k, failure in enumerate(failures)]
        return solved, n_fallbacks


def build_lna_problem(template: AmplifierTemplate,
                      spec: Optional[DesignSpec] = None,
                      evaluator: Optional[LnaEvaluator] = None,
                      ) -> MultiObjectiveProblem:
    """The (NFmax, -GTmin) problem with the spec's hard constraints.

    The problem is posed in the **unit box** [0, 1]^n; use
    :meth:`DesignVariables.from_unit` to decode solution vectors.  Its
    ``evaluate`` takes a ``(B, n)`` stack through one
    :meth:`LnaEvaluator.performance_batch` call and reads both the
    objectives and the :meth:`DesignSpec.constraints` of every row
    from the same records.
    """
    spec = spec or DesignSpec()
    evaluator = evaluator or LnaEvaluator(template)

    def evaluate(x: np.ndarray):
        perfs = evaluator.performance_batch(x)
        objectives = np.array([[p.nf_max_db, -p.gt_min_db] for p in perfs])
        constraints = spec.constraints(
            np.array([p.s11_db for p in perfs]),
            np.array([p.s22_db for p in perfs]),
            np.array([p.mu_min for p in perfs]),
            np.array([p.gt_ripple_db for p in perfs]),
            np.array([p.ids for p in perfs]),
        )
        return objectives, constraints

    n_vars = len(DesignVariables.NAMES)
    return MultiObjectiveProblem(
        evaluate=evaluate,
        n_objectives=2,
        lower=np.zeros(n_vars),
        upper=np.ones(n_vars),
        objective_names=("NFmax_dB", "-GTmin_dB"),
    )
