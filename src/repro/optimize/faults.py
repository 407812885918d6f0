"""Failure taxonomy, run-health telemetry, and the fault-injection harness.

Population-based optimization of the LNA sweeps candidates into regions
where the circuit model legitimately breaks down: singular MNA matrices
(degenerate element values), non-convergent DC bias, NaN noise figures.
The runtime's contract is that *the optimizer absorbs these failures* —
a bad candidate costs one penalty evaluation, never the whole run.

This module is the shared vocabulary of that contract:

* :class:`EvaluationFailure` — the structured record one failed
  candidate evaluation produces (category, message, design vector);
* :class:`RunHealth` — per-run counters (failures by category, retries,
  engine fallbacks) surfaced on every optimizer result
  and rendered by :func:`repro.core.report.format_run_health`;
* :func:`classify_exception` / :func:`guarded_call` — the one place
  that decides which exceptions are *evaluation* failures (absorbed)
  versus programming errors (propagated);
* :class:`FaultInjector` — a seeded test harness that makes any
  objective raise or return NaN with set probabilities, used by
  the fault-tolerance test suite to verify the absorption guarantees.
"""

from __future__ import annotations

import os
import time
import zlib
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

import numpy as np

from repro.analysis.dc import DcConvergenceError

__all__ = [
    "InjectedFault",
    "EvaluationFailure",
    "RunHealth",
    "FaultInjector",
    "FAILURE_EXCEPTIONS",
    "classify_exception",
    "guarded_call",
    "retry_transient",
    "backoff_delay",
    "BACKOFF_BASE",
    "BACKOFF_CAP",
    "BACKOFF_JITTER",
]

#: Exception types that mean "this candidate cannot be evaluated", as
#: opposed to programming errors.  ``ValueError`` is included because
#: the MNA solvers report singular topologies through it.
FAILURE_EXCEPTIONS = (
    DcConvergenceError,
    np.linalg.LinAlgError,
    ValueError,
    FloatingPointError,
    ZeroDivisionError,
    OverflowError,
)

#: Canonical failure categories (keys of :attr:`RunHealth.failures`).
CATEGORY_DC = "dc_convergence"
CATEGORY_SINGULAR = "singular"
CATEGORY_NON_FINITE = "non_finite"
CATEGORY_EXCEPTION = "exception"
CATEGORY_BAD_BIAS = "bad_bias"
CATEGORY_CONTRACT = "contract"

#: Exponential-backoff schedule shared by every transient-retry loop in
#: the runtime — checkpoint file I/O
#: (:class:`repro.optimize.checkpoint.FileCheckpointStore`) and the job
#: queue's record I/O and retry gate
#: (:class:`repro.service.queue.JobQueue`): wait
#: ``min(BACKOFF_CAP, BACKOFF_BASE * 2**k)`` seconds before attempt
#: ``k + 1``.
BACKOFF_BASE = 0.1
BACKOFF_CAP = 2.0

#: Default fractional jitter of :func:`backoff_delay`.  Each wait is
#: scaled by ``1 - BACKOFF_JITTER * u`` with a *deterministic* uniform
#: ``u`` derived from the caller's jitter key and the attempt index —
#: never above the capped schedule, and kept below ``0.5`` so that a
#: doubled next delay still exceeds the jittered previous one (backoff
#: stays monotone below the cap).
BACKOFF_JITTER = 0.25


def backoff_delay(attempt: int,
                  backoff_base: float = BACKOFF_BASE,
                  backoff_cap: float = BACKOFF_CAP,
                  jitter: float = BACKOFF_JITTER,
                  key=None) -> float:
    """The wait before retry ``attempt + 1``, with seeded de-sync jitter.

    The undithered schedule is ``min(cap, base * 2**attempt)`` — the
    shared contract of every transient-retry loop in the runtime.  On
    top of it, the delay is scaled by ``1 - jitter * u`` where ``u`` in
    ``[0, 1)`` is a deterministic hash of ``(key, attempt)`` (the key
    defaults to the calling process id).  Many runners that hit the
    same transient failure at the same moment therefore spread their
    retries instead of re-colliding in synchronized waves, yet a given
    runner's schedule is reproducible — no ambient RNG state is
    consumed.
    """
    delay = min(backoff_cap, backoff_base * 2.0 ** attempt)
    if jitter <= 0.0:
        return delay
    token = f"{os.getpid() if key is None else key}:{attempt}"
    u = zlib.crc32(token.encode("utf-8")) / 2.0 ** 32
    return delay * (1.0 - float(jitter) * u)


def retry_transient(fn: Callable, *args,
                    attempts: int = 3,
                    backoff_base: float = BACKOFF_BASE,
                    backoff_cap: float = BACKOFF_CAP,
                    jitter: float = BACKOFF_JITTER,
                    jitter_key=None,
                    retry_on=(OSError,),
                    no_retry=(FileNotFoundError,),
                    on_retry: Optional[Callable] = None,
                    **kwargs):
    """Call ``fn(*args, **kwargs)``, retrying transient failures.

    Exceptions matching *retry_on* (default: ``OSError`` — the class
    transient filesystem hiccups raise) are retried up to *attempts*
    times with the shared capped exponential backoff of
    :func:`backoff_delay` — including its deterministic seeded jitter,
    so a fleet of runners retrying the same failure does not
    synchronize (*jitter_key* seeds the dither; it defaults to the
    process id).  Exceptions in *no_retry* (default:
    ``FileNotFoundError`` — a missing file is a state, not a hiccup)
    and everything else propagate immediately.  *on_retry*, when
    given, is called as ``on_retry(exc, attempt)`` before each sleep so
    callers can count retries in their telemetry.
    """
    if attempts < 1:
        raise ValueError(f"attempts must be >= 1, got {attempts}")
    for attempt in range(attempts):
        try:
            return fn(*args, **kwargs)
        except no_retry:
            raise
        except retry_on as exc:
            if attempt == attempts - 1:
                raise
            if on_retry is not None:
                on_retry(exc, attempt)
            time.sleep(backoff_delay(attempt, backoff_base, backoff_cap,
                                     jitter=jitter, key=jitter_key))


class InjectedFault(RuntimeError):
    """The artificial failure raised by :class:`FaultInjector`."""


@dataclass(frozen=True)
class EvaluationFailure:
    """One candidate evaluation that could not produce a finite result."""

    category: str
    message: str
    x: Optional[np.ndarray] = None

    def __str__(self) -> str:
        return f"[{self.category}] {self.message}"


def classify_exception(exc: BaseException) -> str:
    """Map an absorbed exception to its failure category."""
    if isinstance(exc, DcConvergenceError):
        return CATEGORY_DC
    if isinstance(exc, np.linalg.LinAlgError):
        return CATEGORY_SINGULAR
    if "singular" in str(exc).lower():
        return CATEGORY_SINGULAR
    return CATEGORY_EXCEPTION


@dataclass
class RunHealth:
    """Failure/retry/fallback telemetry of one optimization run.

    Attached to every optimizer result (``result.health``); counters
    are cumulative over the run, survive checkpoint/resume, and are
    rendered by :func:`repro.core.report.format_run_health`.
    """

    failures: Dict[str, int] = field(default_factory=dict)
    retries: int = 0
    engine_fallbacks: int = 0
    checkpoints_written: int = 0
    resumed_at: Optional[int] = None

    def record(self, category: str, n: int = 1):
        """Count *n* failures of *category*."""
        self.failures[category] = self.failures.get(category, 0) + int(n)

    @property
    def n_failures(self) -> int:
        """Total failed candidate evaluations, all categories."""
        return int(sum(self.failures.values()))

    def as_dict(self) -> Dict[str, object]:
        """Flat dict for logging / table rows."""
        flat: Dict[str, object] = {
            f"failures.{k}": v for k, v in sorted(self.failures.items())
        }
        flat.update(
            n_failures=self.n_failures,
            retries=self.retries,
            engine_fallbacks=self.engine_fallbacks,
            checkpoints_written=self.checkpoints_written,
        )
        return flat

    def merge(self, other: "RunHealth"):
        """Fold another health record into this one (counters add)."""
        for category, count in other.failures.items():
            self.record(category, count)
        self.retries += other.retries
        self.engine_fallbacks += other.engine_fallbacks
        self.checkpoints_written += other.checkpoints_written

    # -- checkpoint support -------------------------------------------------
    def state(self) -> Dict[str, object]:
        """Serializable snapshot for checkpoint payloads."""
        return {
            "failures": dict(self.failures),
            "retries": self.retries,
            "engine_fallbacks": self.engine_fallbacks,
            "checkpoints_written": self.checkpoints_written,
        }

    def restore(self, state: Dict[str, object]):
        """Load a snapshot produced by :meth:`state`.

        Snapshots from older checkpoints may also carry
        ``pool_rebuilds`` and ``serial_fallback``; those keys are
        ignored.
        """
        self.failures = dict(state["failures"])
        self.retries = int(state["retries"])
        self.engine_fallbacks = int(state["engine_fallbacks"])
        self.checkpoints_written = int(state["checkpoints_written"])


def guarded_call(objective: Callable[[np.ndarray], float], x: np.ndarray,
                 health: RunHealth) -> float:
    """Evaluate a scalar objective, absorbing candidate failures.

    Exceptions in :data:`FAILURE_EXCEPTIONS` (plus any other
    ``Exception`` — stochastic objectives can fail in arbitrary ways)
    and non-finite return values are recorded in *health* and mapped to
    ``+inf``, which every optimizer treats as "worse than anything
    finite".  ``KeyboardInterrupt``/``SystemExit`` propagate so runs
    stay interruptible.
    """
    try:
        value = float(objective(x))
    except Exception as exc:  # noqa: BLE001 - absorption is the contract
        health.record(classify_exception(exc))
        return float("inf")
    if not np.isfinite(value):
        health.record(CATEGORY_NON_FINITE)
        return float("inf")
    return value


class FaultInjector:
    """Wrap an objective so it fails with seeded probabilities.

    Test harness for the fault-tolerant runtime: each call draws one
    uniform variate and either raises :class:`InjectedFault`
    (probability ``p_raise``), returns ``nan_value`` (``p_nan``), or
    delegates to the wrapped objective.  Injection counts are kept per
    kind so tests can assert that an optimizer's :class:`RunHealth`
    counters match exactly what was injected.  The RNG stream is
    consumed in call order, so wrap the objective of an in-order
    (unsharded) evaluation when fault placement must be reproducible.
    """

    def __init__(self, objective: Callable[[np.ndarray], float],
                 p_raise: float = 0.0, p_nan: float = 0.0,
                 nan_value=float("nan"), seed: Optional[int] = 0):
        for name, p in (("p_raise", p_raise), ("p_nan", p_nan)):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {p}")
        if p_raise + p_nan > 1.0:
            raise ValueError("injection probabilities must sum to <= 1")
        self._objective = objective
        self.p_raise = float(p_raise)
        self.p_nan = float(p_nan)
        self.nan_value = nan_value
        self._rng = np.random.default_rng(seed)
        self.n_calls = 0
        self.n_raised = 0
        self.n_nan = 0

    @property
    def n_injected(self) -> int:
        """Total injected faults of any kind."""
        return self.n_raised + self.n_nan

    def __call__(self, x):
        self.n_calls += 1
        u = float(self._rng.random())
        if u < self.p_raise:
            self.n_raised += 1
            raise InjectedFault(
                f"injected evaluation failure (call {self.n_calls})"
            )
        if u < self.p_raise + self.p_nan:
            self.n_nan += 1
            return self.nan_value
        return self._objective(x)
