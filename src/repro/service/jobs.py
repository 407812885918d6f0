"""Job vocabulary of the optimization service.

A *job* is the unit the service supervises: a declarative description
of one optimization (or one experiment driver) that can be serialized
into the durable queue, leased to a runner slot, checkpointed, and —
after a crash — resumed by a different runner with bit-identical
results.  Everything here is therefore **data, not callables**: the
objective is named against a registry of builders
(:func:`register_objective` / :func:`build_objective`) so a freshly
restarted service process can reconstruct exactly the problem a dead
runner was solving.

Two record types travel through the queue:

* :class:`JobSpec` — what the client asked for (objective, algorithm,
  budget, deadline, retry policy).  Immutable once submitted.
* :class:`JobRecord` — the spec plus the supervisor's bookkeeping
  (state, attempt counter, lease, takeovers, error, result summary).

State machine (dirs of :class:`repro.service.queue.JobQueue`)::

    submitted ──> pending ──claim──> leased ──run──> done
                     ^                  │              │
                     │   retry/backoff  │ fail         └─> failed
                     ├──────────────────┤ (retryable)
                     │   lease expiry   │
                     └──────────────────┘ (orphan takeover, checkpoint
                         resume — results bit-identical to a run that
                         was never interrupted)
"""

from __future__ import annotations

import os
import time
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

__all__ = [
    "JOB_STATE_PENDING",
    "JOB_STATE_LEASED",
    "JOB_STATE_DONE",
    "JOB_STATE_FAILED",
    "JOB_STATES",
    "TERMINAL_STATES",
    "JobSpec",
    "JobRecord",
    "new_job_id",
    "job_id_of",
    "register_objective",
    "build_objective",
    "registered_objectives",
]

JOB_STATE_PENDING = "pending"
JOB_STATE_LEASED = "leased"
JOB_STATE_DONE = "done"
JOB_STATE_FAILED = "failed"
JOB_STATES = (JOB_STATE_PENDING, JOB_STATE_LEASED, JOB_STATE_DONE,
              JOB_STATE_FAILED)
TERMINAL_STATES = (JOB_STATE_DONE, JOB_STATE_FAILED)

#: Algorithms a ``kind="optimize"`` job may name.  Both support full
#: checkpoint/resume, which is what makes lease takeover loss-free.
OPTIMIZE_ALGORITHMS = ("differential_evolution", "particle_swarm")

JOB_KINDS = ("optimize", "experiment")


def new_job_id(name: str = "job") -> str:
    """A fresh, filesystem-safe, chronologically sortable job id."""
    stamp = time.strftime("%Y%m%d-%H%M%S", time.gmtime())
    return f"{name}-{stamp}-{os.urandom(3).hex()}"


@dataclass(frozen=True)
class JobSpec:
    """What a client submits: a self-contained description of one job.

    Parameters
    ----------
    kind:
        ``"optimize"`` runs a registry objective through one of
        :data:`OPTIMIZE_ALGORITHMS` with checkpoint-backed recovery;
        ``"experiment"`` runs a whole experiment driver (e5/e6/e8) —
        retried from scratch rather than resumed, since the drivers
        orchestrate several optimizer stages of their own.
    objective, objective_params:
        Registry name (see :func:`register_objective`) and its builder
        parameters.  Ignored for experiment jobs.
    algorithm, budget, options, seed:
        Optimizer entry point, its size knobs
        (``population_size`` / ``max_iterations``), extra keyword
        arguments passed through verbatim, and the run seed.
    workers:
        Thread shards per population evaluation (see
        :class:`repro.optimize.batching.PopulationEvaluator`).
    checkpoint_every:
        Generations between durable checkpoints.  The default ``1``
        makes every completed generation recoverable — the service's
        lease-takeover guarantee is only as fresh as this.
    deadline_s:
        Wall-clock budget measured from the job's *first* start,
        spanning retries and takeovers; exceeding it fails the job
        terminally (``error="deadline"``).
    max_retries:
        Transient-failure retries before the job fails terminally.
        Lease-expiry takeovers are *not* retries — a crashed runner
        never burns the client's retry budget.
    experiment, experiment_kwargs:
        Driver name and its ``run()`` keyword arguments, for
        ``kind="experiment"``.
    """

    kind: str = "optimize"
    objective: str = "bench.sphere"
    objective_params: Dict[str, object] = field(default_factory=dict)
    algorithm: str = "differential_evolution"
    budget: Dict[str, int] = field(default_factory=dict)
    options: Dict[str, object] = field(default_factory=dict)
    seed: Optional[int] = 0
    workers: Optional[int] = None
    checkpoint_every: int = 1
    deadline_s: Optional[float] = None
    max_retries: int = 2
    experiment: Optional[str] = None
    experiment_kwargs: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in JOB_KINDS:
            raise ValueError(
                f"kind must be one of {JOB_KINDS}, got {self.kind!r}")
        if self.kind == "optimize" \
                and self.algorithm not in OPTIMIZE_ALGORITHMS:
            raise ValueError(
                f"algorithm must be one of {OPTIMIZE_ALGORITHMS}, "
                f"got {self.algorithm!r}")
        if self.kind == "experiment" and not self.experiment:
            raise ValueError("experiment jobs must name an experiment")
        if self.checkpoint_every < 1:
            raise ValueError(
                f"checkpoint_every must be >= 1, got {self.checkpoint_every}")
        if self.max_retries < 0:
            raise ValueError(
                f"max_retries must be >= 0, got {self.max_retries}")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValueError(
                f"deadline_s must be positive, got {self.deadline_s}")

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "JobSpec":
        # Unknown keys are dropped, so records queued with fields this
        # version no longer has (``backend``, ``generation_timeout``,
        # ``fault_injection``) still load.
        known = {f for f in cls.__dataclass_fields__}
        return cls(**{k: v for k, v in data.items() if k in known})


@dataclass
class JobRecord:
    """One job's spec plus the service's durable bookkeeping."""

    job_id: str
    spec: JobSpec
    state: str = JOB_STATE_PENDING
    attempt: int = 0          # failed attempts so far
    takeovers: int = 0        # lease expiries recovered from
    submitted_at: float = 0.0
    started_at: Optional[float] = None   # first lease — deadline anchor
    finished_at: Optional[float] = None
    not_before: float = 0.0   # retry backoff gate (epoch seconds)
    lease: Optional[Dict[str, object]] = None
    error: Optional[str] = None
    result: Optional[Dict[str, object]] = None  # small summary only

    def to_dict(self) -> Dict[str, object]:
        data = asdict(self)
        data["spec"] = self.spec.to_dict()
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "JobRecord":
        known = {f for f in cls.__dataclass_fields__}
        fields_ = {k: v for k, v in data.items() if k in known}
        fields_["spec"] = JobSpec.from_dict(dict(data["spec"]))
        return cls(**fields_)


def job_id_of(job) -> str:
    """Normalize a job handle — a job id string or a :class:`JobRecord`.

    The client surfaces accept either, so ``submit()``'s return value
    can be passed straight back to ``wait``/``result``/``cancel``.
    """
    return job.job_id if isinstance(job, JobRecord) else str(job)


# ----------------------------------------------------------------------
# objective registry
# ----------------------------------------------------------------------

#: name -> builder(params) -> {"objective", "objective_batch",
#:                             "lower", "upper"}
_OBJECTIVES: Dict[str, Callable] = {}


def register_objective(name: str):
    """Decorator registering an objective builder under *name*.

    A builder takes the spec's ``objective_params`` dict and returns a
    problem description::

        {"objective": callable(x) -> float,
         "objective_batch": callable((B, n)) -> (B,) or None,
         "lower": (n,) array, "upper": (n,) array}

    Builders run inside whichever process leases the job — they must
    depend only on their params and importable code, never on client
    process state.
    """
    def decorate(builder: Callable):
        _OBJECTIVES[name] = builder
        return builder
    return decorate


def build_objective(name: str, params: Optional[dict] = None) -> dict:
    """Instantiate a registered objective; ``KeyError`` names the rest."""
    try:
        builder = _OBJECTIVES[name]
    except KeyError:
        raise KeyError(
            f"no objective {name!r} registered "
            f"(known: {', '.join(sorted(_OBJECTIVES)) or 'none'})"
        ) from None
    problem = builder(dict(params or {}))
    problem.setdefault("objective_batch", None)
    problem["lower"] = np.asarray(problem["lower"], dtype=float)
    problem["upper"] = np.asarray(problem["upper"], dtype=float)
    return problem


def registered_objectives() -> List[str]:
    return sorted(_OBJECTIVES)


# -- built-in objectives ------------------------------------------------------

def _sphere(x) -> float:
    return float(np.sum(np.square(np.asarray(x, dtype=float))))


def _sphere_batch(population) -> np.ndarray:
    return np.sum(np.square(np.asarray(population, dtype=float)), axis=1)


def _rosenbrock(x) -> float:
    x = np.asarray(x, dtype=float)
    return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2
                        + (1.0 - x[:-1]) ** 2))


class _SlowObjective:
    """Picklable wrapper adding a fixed per-call delay (test pacing)."""

    def __init__(self, fn: Callable, delay_s: float):
        self._fn = fn
        self.delay_s = float(delay_s)

    def __call__(self, x) -> float:
        if self.delay_s > 0.0:
            time.sleep(self.delay_s)
        return self._fn(x)


@register_objective("bench.sphere")
def _build_sphere(params: dict) -> dict:
    dim = int(params.get("dim", 4))
    half_width = float(params.get("half_width", 5.0))
    delay_s = float(params.get("delay_s", 0.0))
    objective = _SlowObjective(_sphere, delay_s) if delay_s > 0 else _sphere
    return {
        "objective": objective,
        "objective_batch": None if delay_s > 0 else _sphere_batch,
        "lower": np.full(dim, -half_width),
        "upper": np.full(dim, half_width),
    }


@register_objective("bench.rosenbrock")
def _build_rosenbrock(params: dict) -> dict:
    dim = int(params.get("dim", 4))
    delay_s = float(params.get("delay_s", 0.0))
    objective = (_SlowObjective(_rosenbrock, delay_s) if delay_s > 0
                 else _rosenbrock)
    return {
        "objective": objective,
        "objective_batch": None,
        "lower": np.full(dim, -2.0),
        "upper": np.full(dim, 2.0),
    }


@register_objective("robust.optimize")
def _build_robust_optimize(params: dict) -> dict:
    """Yield-aware robust scalarization of the paper's LNA.

    Builds a :class:`repro.optimize.robust.RobustScalarObjective` —
    worst-case NF over a tolerance corner set plus a yield-shortfall
    penalty — against the reference device.  The evaluator compiles
    lazily inside whichever process leases the job, and the corner set
    is a pure function of the params, so a lease takeover resumes
    bit-identical evaluations.
    """
    from repro.core.amplifier import DesignVariables
    from repro.optimize.robust import RobustScalarObjective

    objective = RobustScalarObjective(
        n_mc_trials=int(params.get("n_trials", 8)),
        seed=params.get("corner_seed", 0),
        yield_weight=float(params.get("yield_weight", 5.0)),
        n_band=int(params.get("n_band", 9)),
        n_guard=int(params.get("n_guard", 12)),
        nf_ship_limit_db=float(params.get("nf_ship_limit_db", 0.8)),
        gt_ship_limit_db=float(params.get("gt_ship_limit_db", 13.0)),
    )
    dim = len(DesignVariables.NAMES)
    return {
        "objective": objective,
        "objective_batch": objective.batch,
        "lower": np.zeros(dim),
        "upper": np.ones(dim),
    }


#: ``(B,)`` figures of merit the ``lna.metric`` objective can optimize.
_LNA_METRICS = ("nf_max_db", "gt_min_db", "gt_ripple_db", "mu_min", "ids")


@register_objective("lna.metric")
def _build_lna_metric(params: dict) -> dict:
    """The paper's LNA, optimizing one compiled figure of merit.

    Compiles the reference-device amplifier template inside the runner
    — the same deterministic inputs yield the same stamp plan, so every
    evaluation is bit-identical to an in-client compile.  ``metric``
    names one of the :class:`~repro.core.engine.BatchPerformance`
    fields in ``_LNA_METRICS``.
    """
    from dataclasses import fields as dc_fields

    from repro.core.amplifier import AmplifierTemplate, DesignVariables
    from repro.core.engine import CompiledTemplate
    from repro.experiments.common import reference_device

    metric = str(params.get("metric", "nf_max_db"))
    if metric not in _LNA_METRICS:
        raise ValueError(
            f"metric must be one of {_LNA_METRICS}, got {metric!r}")
    sign = float(params.get("sign", 1.0))
    engine = CompiledTemplate(
        AmplifierTemplate(reference_device().small_signal), verify=False)

    def objective_batch(unit_pop: np.ndarray) -> np.ndarray:
        batch, failures, _ = engine.performance_batch_isolated(unit_pop)
        values = sign * np.asarray(getattr(batch, metric), dtype=float)
        # Penalty figures are worst-case for a design, not for every
        # metric (a penalty row has zero ripple), so an unevaluable
        # candidate scores +inf, which the evaluator counts as failed.
        values[[f is not None for f in failures]] = np.inf
        return values

    def objective(unit_x: np.ndarray) -> float:
        return float(objective_batch(np.atleast_2d(unit_x))[0])

    dim = len(dc_fields(DesignVariables))
    return {
        "objective": objective,
        "objective_batch": objective_batch,
        "lower": np.zeros(dim),
        "upper": np.ones(dim),
    }
