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
comparable.
"""

from __future__ import annotations

import hashlib
import threading
import warnings
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
from repro.core.engine import (
    CompiledTemplate,
    CompileError,
    _performance_is_finite,
)
from repro.optimize.faults import (
    CATEGORY_NON_FINITE,
    EvaluationFailure,
    FAILURE_EXCEPTIONS,
    RunHealth,
    classify_exception,
)
from repro.optimize.goal_attainment import MultiObjectiveProblem
from repro.rf.frequency import FrequencyGrid

__all__ = ["DesignSpec", "LnaEvaluator", "build_lna_problem"]


def _stable_describe(obj, depth: int = 4) -> str:
    """Deterministic structural description of *obj* for fingerprinting.

    Recurses through numbers, strings, arrays, sequences, mappings and
    plain-attribute objects; anything deeper (or opaque) contributes
    only its type name, never its memory address.
    """
    if isinstance(obj, (bool, int, float, complex, str, type(None))):
        return repr(obj)
    if isinstance(obj, np.ndarray):
        digest = hashlib.sha1(
            np.ascontiguousarray(obj).tobytes()
        ).hexdigest()
        return f"ndarray{obj.shape}{obj.dtype}:{digest}"
    if isinstance(obj, (list, tuple)):
        inner = ",".join(_stable_describe(v, depth - 1) for v in obj)
        return f"[{inner}]"
    if isinstance(obj, dict):
        items = sorted(obj.items(), key=lambda kv: str(kv[0]))
        inner = ",".join(
            f"{key!s}={_stable_describe(value, depth - 1)}"
            for key, value in items
        )
        return f"{{{inner}}}"
    if depth <= 0:
        return type(obj).__name__
    attrs = getattr(obj, "__dict__", None)
    if attrs:
        return f"{type(obj).__name__}{_stable_describe(attrs, depth - 1)}"
    return type(obj).__name__


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


class LnaEvaluator:
    """Memoized map from a design vector to amplifier figures of merit.

    Objectives and constraints share one circuit solve per design
    point; the quantized-key LRU cache serves an SLSQP step's
    spec-constraint Jacobian from the stencil rows its attainment
    Jacobian just solved (and the constraints at an iterate from its
    objectives), and lets the multi-stage improved goal-attainment
    flow revisit earlier iterates for free.  Keys
    quantize the unit vector to 12 decimals — far below the ~1.5e-8
    finite-difference step, so distinct probe points never collide —
    normalize ``-0.0`` to ``+0.0`` (their byte patterns differ), and
    are prefixed with a fingerprint of the template + frequency grids,
    so evaluators over different amplifiers can never serve each
    other's stale entries (and :meth:`invalidate_cache` drops the
    store if the template is mutated in place).

    By default evaluations run through the compiled batched engine
    (:class:`repro.core.engine.CompiledTemplate`), which matches the
    scalar path to ~1e-10; pass ``engine="scalar"`` to force the
    original per-candidate circuit build (the test oracle).

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

    def __init__(self, template: AmplifierTemplate,
                 band_grid: Optional[FrequencyGrid] = None,
                 guard_grid: Optional[FrequencyGrid] = None,
                 engine: str = "compiled",
                 cache_size: int = 4096,
                 max_failure_log: int = 64):
        self.template = template
        self.band_grid = band_grid or design_grid(17)
        self.guard_grid = guard_grid or stability_grid(24)
        self.health = RunHealth()
        self.failure_log: List[EvaluationFailure] = []
        self.max_failure_log = int(max_failure_log)
        self.n_solves = 0
        self.cache_hits = 0
        self.cache_size = int(cache_size)
        self._cache: "OrderedDict[bytes, AmplifierPerformance]" = OrderedDict()
        self._lock = threading.Lock()
        self._fingerprint = self._compute_fingerprint()
        self._compiled: Optional[CompiledTemplate] = None
        if engine == "compiled":
            try:
                self._compiled = CompiledTemplate(
                    self.template, self.band_grid, self.guard_grid
                )
            except CompileError as exc:
                warnings.warn(
                    f"compiled engine rejected the template "
                    f"({exc}); falling back to the scalar path",
                    RuntimeWarning,
                )
        elif engine != "scalar":
            raise ValueError(
                f"unknown engine {engine!r}; use 'compiled' or 'scalar'"
            )

    @property
    def engine(self) -> str:
        """The evaluation path in use: ``"compiled"`` or ``"scalar"``."""
        return "compiled" if self._compiled is not None else "scalar"

    def _compute_fingerprint(self) -> bytes:
        """Hash of the template + grids that parameterize every solve."""
        description = _stable_describe({
            "template": self.template,
            "band_grid": self.band_grid,
            "guard_grid": self.guard_grid,
        })
        return hashlib.sha1(description.encode("utf-8")).digest()

    def invalidate_cache(self) -> None:
        """Drop cached results and re-fingerprint the template.

        Call after mutating the template (or its device) in place so
        stale figures of merit cannot be served for the new circuit.
        """
        with self._lock:
            self._cache.clear()
            self._fingerprint = self._compute_fingerprint()

    def _key(self, unit_x: np.ndarray) -> bytes:
        quantized = np.round(np.asarray(unit_x, dtype=float), 12)
        # -0.0 and +0.0 compare equal but differ bytewise; fold them.
        quantized = quantized + 0.0
        return self._fingerprint + quantized.tobytes()

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
        if len(self._cache) > self.cache_size:
            self._cache.popitem(last=False)

    def _lookup(self, key: bytes) -> Optional[AmplifierPerformance]:
        # Caller holds self._lock.
        cached = self._cache.get(key)
        if cached is not None:
            self._cache.move_to_end(key)
            self.cache_hits += 1
            _obs_metrics.inc("evaluator.cache_hits")
        return cached

    def _record_failure(self, failure: EvaluationFailure):
        with self._lock:
            self.health.record(failure.category)
            if len(self.failure_log) < self.max_failure_log:
                self.failure_log.append(failure)
        _obs_journal.emit("evaluation_failure",
                          category=failure.category,
                          message=str(failure.message)[:200])

    def _penalty(self, failure: EvaluationFailure) -> AmplifierPerformance:
        self._record_failure(failure)
        return AmplifierPerformance.penalty(self.band_grid, failure)

    def _solve_one(self, unit_x: np.ndarray) -> AmplifierPerformance:
        """Scalar-path solve of one miss, used when no compiled engine
        is active; failures become penalty records."""
        try:
            perf = self.template.evaluate(
                DesignVariables.from_unit(unit_x),
                self.band_grid, self.guard_grid,
            )
        except FAILURE_EXCEPTIONS as exc:
            return self._penalty(EvaluationFailure(
                classify_exception(exc), str(exc), x=unit_x.copy()
            ))
        if not _performance_is_finite(perf):
            return self._penalty(EvaluationFailure(
                CATEGORY_NON_FINITE,
                "evaluation produced non-finite figures of merit",
                x=unit_x.copy(),
            ))
        return perf

    def performance(self, unit_x: np.ndarray) -> AmplifierPerformance:
        """Figures of merit at a *unit-box* design vector."""
        unit_x = np.asarray(unit_x, dtype=float)
        key = self._key(unit_x)
        with self._lock:
            cached = self._lookup(key)
        if cached is not None:
            return cached
        _obs_metrics.inc("evaluator.cache_misses")
        with _obs_tracer.span("evaluator.performance"):
            solved, n_fallbacks = self._solve_misses(unit_x[None, :], [0])
            self._store([key], solved, n_fallbacks)
        return solved[0]

    def performance_batch(
        self, unit_x: np.ndarray
    ) -> List[AmplifierPerformance]:
        """Figures of merit for a ``(B, n_vars)`` stack of unit vectors.

        Cache hits are served from the LRU store; the misses are solved
        in **one** batched MNA factorization when the compiled engine
        is active (duplicate rows within the batch are solved once).
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
                solved, n_fallbacks = self._solve_misses(unit_x, first_rows)
            self._store(list(miss_rows), solved, n_fallbacks)
            for rows, perf in zip(miss_rows.values(), solved):
                for i in rows:
                    results[i] = perf
        return results

    def _solve_misses(self, unit_x: np.ndarray, first_rows: List[int]
                      ) -> Tuple[List[AmplifierPerformance], int]:
        """Solve the de-duplicated cache misses of a call.

        Returns the solved records and the engine's fallback count.
        """
        if self._compiled is not None:
            batch, failures, n_fallbacks = (
                self._compiled.performance_batch_isolated(
                    unit_x[first_rows]
                )
            )
            solved = []
            for k in range(len(first_rows)):
                if failures[k] is not None:
                    solved.append(self._penalty(failures[k]))
                else:
                    solved.append(batch.candidate(k))
            return solved, n_fallbacks
        return [self._solve_one(unit_x[i]) for i in first_rows], 0


def build_lna_problem(template: AmplifierTemplate,
                      spec: Optional[DesignSpec] = None,
                      evaluator: Optional[LnaEvaluator] = None,
                      ) -> MultiObjectiveProblem:
    """The (NFmax, -GTmin) problem with the spec's hard constraints.

    The problem is posed in the **unit box** [0, 1]^n; use
    :meth:`DesignVariables.from_unit` to decode solution vectors.  In
    addition to the scalar callables the problem carries
    ``objectives_batch`` / ``constraints_batch`` — population-level
    maps an optimizer can call with a ``(B, n)`` matrix to amortize the
    MNA factorization across candidates.
    """
    spec = spec or DesignSpec()
    evaluator = evaluator or LnaEvaluator(template)

    def _objective_row(perf: AmplifierPerformance) -> List[float]:
        return [perf.nf_max_db, -perf.gt_min_db]

    def _constraint_row(perf: AmplifierPerformance) -> List[float]:
        return [
            float(np.max(perf.s11_db)) + spec.rl_spec_db,   # S11 <= -RL
            float(np.max(perf.s22_db)) + spec.rl_spec_db,   # S22 <= -RL
            spec.mu_margin - perf.mu_min,                   # mu >= margin
            perf.gt_ripple_db - spec.ripple_spec_db,        # ripple <= spec
            (perf.ids - spec.ids_max) / spec.ids_max,       # Ids <= budget
        ]

    def objectives(x: np.ndarray) -> np.ndarray:
        return np.array(_objective_row(evaluator.performance(x)))

    def constraints(x: np.ndarray) -> np.ndarray:
        return np.array(_constraint_row(evaluator.performance(x)))

    def objectives_batch(x: np.ndarray) -> np.ndarray:
        perfs = evaluator.performance_batch(x)
        return np.array([_objective_row(p) for p in perfs])

    def constraints_batch(x: np.ndarray) -> np.ndarray:
        perfs = evaluator.performance_batch(x)
        return np.array([_constraint_row(p) for p in perfs])

    n_vars = len(DesignVariables.NAMES)
    return MultiObjectiveProblem(
        objectives=objectives,
        n_objectives=2,
        lower=np.zeros(n_vars),
        upper=np.ones(n_vars),
        constraints=constraints,
        objective_names=("NFmax_dB", "-GTmin_dB"),
        objectives_batch=objectives_batch,
        constraints_batch=constraints_batch,
    )
