"""Fault-tolerant optimization job service with lease-based recovery.

The layers, bottom to top:

* :mod:`repro.service.jobs` — the vocabulary: :class:`JobSpec` /
  :class:`JobRecord` and the named-objective registry that lets a
  restarted process reconstruct the problem a dead runner was solving.
* :mod:`repro.service.queue` — the durable on-disk queue
  (state-as-directory, atomic-rename claims, jittered retry backoff,
  lease expiry, torn-file quarantine).
* :mod:`repro.service.scheduler` — :class:`JobRunner`, which executes
  one leased job with per-generation lease heartbeats, cooperative
  cancellation, deadline enforcement, and checkpoint-per-generation
  durability (takeovers resume bit-identically).
* :mod:`repro.service.supervisor` — :class:`JobService`, the runner
  slots plus the recovery sweep (expired-lease takeover) and graceful
  drain.
* :mod:`repro.service.api` — :class:`ServiceClient`, the
  submit / poll / fetch surface over a service root directory.
"""

from repro.service.api import (
    ServiceClient,
    job_result,
    job_status,
    submit_job,
)
from repro.service.jobs import (
    JOB_STATE_DONE,
    JOB_STATE_FAILED,
    JOB_STATE_LEASED,
    JOB_STATE_PENDING,
    TERMINAL_STATES,
    JobRecord,
    JobSpec,
    build_objective,
    job_id_of,
    register_objective,
    registered_objectives,
)
from repro.service.queue import JobNotFound, JobQueue, LeaseLost, QueueFull
from repro.service.scheduler import (
    DrainRequested,
    JobCancelled,
    JobDeadlineExceeded,
    JobRunner,
    register_experiment,
)
from repro.service.supervisor import JobService, service_paths

__all__ = [
    "JOB_STATE_PENDING",
    "JOB_STATE_LEASED",
    "JOB_STATE_DONE",
    "JOB_STATE_FAILED",
    "TERMINAL_STATES",
    "JobSpec",
    "JobRecord",
    "job_id_of",
    "register_objective",
    "build_objective",
    "registered_objectives",
    "JobQueue",
    "QueueFull",
    "LeaseLost",
    "JobNotFound",
    "JobRunner",
    "JobCancelled",
    "JobDeadlineExceeded",
    "DrainRequested",
    "register_experiment",
    "JobService",
    "service_paths",
    "ServiceClient",
    "submit_job",
    "job_status",
    "job_result",
]
