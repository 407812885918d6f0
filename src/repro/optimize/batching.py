"""Population evaluation for the metaheuristic optimizers.

The optimizers in :mod:`repro.optimize.metaheuristics` accept an
optional *batch objective* — one call mapping a ``(B, n)`` population
matrix to ``(B,)`` fitness values — so problems with a vectorized
model (the compiled LNA engine, any NumPy-friendly test function) pay
one solve per generation instead of one per candidate.

:class:`PopulationEvaluator` has one path: a guarded call to
``objective_batch``, or the guarded scalar loop when there is none.
With ``workers > 1`` that path runs on row blocks across a thread pool
(:class:`BatchShardExecutor`); the hot loop is numpy ``linalg.solve``,
which releases the GIL, so the shards overlap with zero serialization.

Every path is **fault-isolated**: a candidate whose evaluation raises
or returns a non-finite value gets ``+inf`` fitness and a
:class:`~repro.optimize.faults.RunHealth` counter tick — never an
exception out of the evaluator.  Per-row results are bit-identical
with and without sharding: the same float64 candidate rows meet the
same objective code, and shard-local health records merge in row
order, so failure counts do not depend on thread scheduling either.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.obs import metrics as _obs_metrics
from repro.obs import tracer as _obs_tracer
from repro.optimize.faults import (
    CATEGORY_NON_FINITE,
    RunHealth,
    guarded_call,
)

__all__ = [
    "BatchShardExecutor",
    "PopulationEvaluator",
    "validate_workers",
]


def validate_workers(workers: Optional[int]) -> Optional[int]:
    """Check a ``workers`` argument, returning it normalized to int.

    ``None`` means "no parallel workers".  Anything else must be a
    strictly positive integer; floats, bools, and non-positive counts
    are rejected with a message naming the offending value.
    """
    if workers is None:
        return None
    if isinstance(workers, bool) or not isinstance(
        workers, (int, np.integer)
    ):
        raise TypeError(
            f"workers must be a positive integer or None, "
            f"got {workers!r} of type {type(workers).__name__}"
        )
    if workers <= 0:
        raise ValueError(
            f"workers must be a positive integer, got {int(workers)}"
        )
    return int(workers)


class BatchShardExecutor:
    """Shard batch callables across a thread pool, in row order.

    :meth:`map_shards` splits the population into per-worker row
    blocks, runs the callable on each block concurrently, and returns
    the per-block results **in row order**; :meth:`map_batch` stacks
    array results back into one — bit-identical to the unsharded call
    because every row meets the same code on the same data.
    Exceptions propagate unchanged so the callers' existing
    batch→serial degradation still owns failure handling.
    """

    def __init__(self, workers: int):
        workers = validate_workers(workers)
        if workers is None:
            raise ValueError("BatchShardExecutor needs an explicit "
                             "worker count")
        self.workers = workers
        self._pool: Optional[ThreadPoolExecutor] = None
        self._closed = False

    def _ensure_pool(self) -> ThreadPoolExecutor:
        if self._closed:
            raise RuntimeError("BatchShardExecutor is closed")
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.workers,
                thread_name_prefix="repro-shard",
            )
        return self._pool

    def map_shards(self, fn: Callable[[np.ndarray], object],
                   population: np.ndarray) -> List[object]:
        """``fn`` over row shards of *population*, results in order."""
        population = np.asarray(population, dtype=float)
        n_shards = min(self.workers, population.shape[0])
        if n_shards <= 1:
            return [fn(population)]
        pool = self._ensure_pool()
        shards = np.array_split(population, n_shards, axis=0)
        futures = [pool.submit(fn, shard) for shard in shards]
        return [future.result() for future in futures]

    def map_batch(self, fn: Callable[[np.ndarray], np.ndarray],
                  population: np.ndarray) -> np.ndarray:
        """``fn`` over row shards of *population*, restacked in order."""
        parts = [np.asarray(part)
                 for part in self.map_shards(fn, population)]
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    def close(self) -> None:
        self._closed = True
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def __enter__(self) -> "BatchShardExecutor":
        return self

    def __exit__(self, *exc_info):
        self.close()
        return False


class PopulationEvaluator:
    """Maps a ``(B, n)`` population to ``(B,)`` objective values.

    Parameters
    ----------
    objective:
        Scalar objective; the fallback for rows of a failed batch call
        and the whole path when there is no ``objective_batch``.
    objective_batch:
        Optional ``(B, n) -> (B,)`` vectorized objective.
    workers:
        ``None`` or ``1`` evaluates in the calling thread; ``> 1``
        splits each population into that many row blocks evaluated on
        a thread pool.  Use the evaluator as a context manager (or
        call :meth:`close`) to release the threads; a closed evaluator
        keeps answering in the calling thread.
    health:
        Shared :class:`RunHealth` to record failures into; a private
        one is created when not given (exposed as ``.health``).
    """

    def __init__(self, objective: Callable[[np.ndarray], float],
                 objective_batch: Optional[Callable] = None,
                 workers: Optional[int] = None,
                 health: Optional[RunHealth] = None):
        workers = validate_workers(workers)
        self._objective = objective
        self._batch = objective_batch
        self.health = health if health is not None else RunHealth()
        self._shards = (BatchShardExecutor(workers)
                        if workers is not None and workers > 1 else None)

    def __call__(self, population: np.ndarray) -> np.ndarray:
        population = np.atleast_2d(np.asarray(population, dtype=float))
        with _obs_tracer.span("batching.generation",
                              batch=population.shape[0]):
            if self._shards is None:
                parts = [self._guarded(population)]
            else:
                parts = self._shards.map_shards(self._guarded, population)
        # Shard-local health merges in row order, so counter totals
        # are independent of thread scheduling.
        for _, shard_health in parts:
            self.health.merge(shard_health)
        _obs_metrics.inc("batching.generations")
        if len(parts) == 1:
            return parts[0][0]
        return np.concatenate([values for values, _ in parts])

    def _guarded(self, population: np.ndarray
                 ) -> Tuple[np.ndarray, RunHealth]:
        """One fault-isolated evaluation, failures in a local record."""
        local = RunHealth()
        if self._batch is None:
            return self._guarded_rows(population, local), local
        n = population.shape[0]
        try:
            values = np.asarray(self._batch(population),
                                dtype=float).reshape(-1)
        except Exception:  # noqa: BLE001 - degrade, don't abort
            # The serial re-evaluation records the per-candidate
            # failures, so the batch-level error only counts as a retry.
            local.retries += 1
            return self._guarded_rows(population, local), local
        if values.shape[0] != n:
            raise ValueError(
                f"objective_batch returned {values.shape[0]} values "
                f"for a population of {n}"
            )
        bad = ~np.isfinite(values)
        if np.any(bad):
            local.record(CATEGORY_NON_FINITE, int(np.sum(bad)))
            values = np.where(bad, np.inf, values)
        return values, local

    def _guarded_rows(self, population: np.ndarray,
                      health: RunHealth) -> np.ndarray:
        return np.array(
            [guarded_call(self._objective, x, health) for x in population],
            dtype=float,
        )

    def close(self) -> None:
        """Release the shard threads.  Idempotent; later calls run in
        the calling thread."""
        shards, self._shards = self._shards, None
        if shards is not None:
            shards.close()

    def __enter__(self) -> "PopulationEvaluator":
        return self

    def __exit__(self, *exc_info):
        self.close()
        return False
