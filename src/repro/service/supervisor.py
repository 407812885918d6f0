"""The supervised job service: runner slots, recovery, and drain.

:class:`JobService` is the process that makes the queue *move*.  It
owns:

* **Runner slots** — ``slots`` daemon threads, each claiming one job at
  a time from the durable queue and executing it through
  :class:`~repro.service.scheduler.JobRunner`.  Slots heartbeat their
  leases at every generation boundary; a slot that stalls long enough
  for its lease to expire loses the job to recovery and aborts with
  :class:`~repro.service.queue.LeaseLost` before touching shared state.
* **The recovery sweep** — a supervisor thread that periodically
  re-queues expired leases (crash takeover) and exports queue depths
  as gauges.
* **Graceful drain** — :meth:`stop` flips the drain flag; each slot
  finishes its current *generation*, releases the job back to pending
  with its checkpoint durable (attempt counter untouched), and exits.
  The service journal then records ``service_stop`` and its
  ``run_end`` trailer, so a drained service leaves no orphan run.

Every queue transition is journaled into the service's own run
directory (``runs/<service-id>/journal.jsonl``) — the service is a run
like any other, addressable by ``repro-obs summary`` and diffable
against a previous incarnation.  A service that is SIGKILLed leaves
that journal without a trailer; the *next* service recovers its jobs
via lease expiry, and ``repro-obs gc`` collects the dead service's run
directory once nothing references it.

Crash-recovery invariant (enforced by the chaos soak in
``tests/test_service.py``): kill the service at any instant, start a
fresh one on the same root, and every in-flight optimization resumes
from its last durable generation and finishes **bit-identical** to an
uninterrupted run; ``repro-obs gc`` then collects the dead service's
own run directory and nothing else.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Dict, List, Optional

from repro.obs import metrics as _obs_metrics
from repro.obs.promexport import PromExporter
from repro.obs.runs import RunRegistry
from repro.service.jobs import (JobRecord, JobSpec, TERMINAL_STATES,
                                job_id_of as _job_id)
from repro.service.queue import JobQueue, LeaseLost
from repro.service.scheduler import (
    DrainRequested,
    JobCancelled,
    JobDeadlineExceeded,
    JobRunner,
)

__all__ = ["JobService", "service_paths"]


def service_paths(root: str) -> Dict[str, str]:
    """The well-known directories of a service root."""
    root = str(root)
    return {
        "root": root,
        "queue": os.path.join(root, "queue"),
        "runs": os.path.join(root, "runs"),
    }


class JobService:
    """A fault-tolerant optimization job service over one root directory.

    Parameters
    ----------
    root:
        Service root; the durable queue lives in ``<root>/queue`` and
        every run directory (per-job and the service's own) in
        ``<root>/runs``.  Two services pointed at the same root share
        the queue safely — claims are atomic renames.
    slots:
        Concurrent runner threads.
    lease_s:
        Lease duration granted on claim and re-granted by each
        generation heartbeat.  The recovery sweep takes over any job
        whose lease is this stale — it bounds the takeover latency
        after a crash.
    poll_interval_s:
        Idle slot sleep between claim attempts.
    recovery_interval_s:
        Supervisor sweep period (lease recovery + queue gauges).
    max_pending:
        Admission-control ceiling forwarded to the queue.
    prom_textfile:
        Optional path: every supervisor sweep atomically rewrites this
        file in Prometheus textfile-collector format (queue depths,
        per-job generation progress, evaluator throughput).
    prom_port:
        Optional port for a live scrape endpoint (0 = ephemeral);
        served from :meth:`start` until :meth:`stop`.  The bound port
        is available as ``service.exporter.port``.
    """

    def __init__(self, root: str, slots: int = 2, lease_s: float = 30.0,
                 poll_interval_s: float = 0.05,
                 recovery_interval_s: float = 1.0,
                 max_pending: int = 256,
                 name: str = "service",
                 prom_textfile: Optional[str] = None,
                 prom_port: Optional[int] = None):
        if slots < 1:
            raise ValueError(f"slots must be >= 1, got {slots}")
        paths = service_paths(root)
        self.root = paths["root"]
        self.queue = JobQueue(paths["queue"], max_pending=max_pending)
        self.registry = RunRegistry(paths["runs"])
        self.slots = int(slots)
        self.lease_s = float(lease_s)
        self.poll_interval_s = float(poll_interval_s)
        self.recovery_interval_s = float(recovery_interval_s)
        self.name = str(name)
        self.service_run = None
        self.prom_textfile = prom_textfile
        self.prom_port = prom_port
        self.exporter: Optional[PromExporter] = None
        self._last_nfev_sweep: Optional[tuple] = None
        self._drain = threading.Event()
        self._stop = threading.Event()
        self._threads: List[threading.Thread] = []
        self._started = False

    # -- lifecycle ------------------------------------------------------------
    def start(self) -> "JobService":
        """Open the service journal and launch the slot/supervisor threads."""
        if self._started:
            raise RuntimeError("service already started")
        self._started = True
        self._drain.clear()
        self._stop.clear()
        self.service_run = self.registry.create_run(name=self.name)
        journal = self.service_run.open_journal()
        journal.run_start(
            config={"slots": self.slots, "lease_s": self.lease_s,
                    "root": self.root},
            pid_role="service",
        )
        self.queue.journal = journal
        # Inherit the wreckage of any predecessor on this root before
        # taking new work: expired leases become claimable.
        self.queue.recover_expired()
        if self.prom_textfile is not None or self.prom_port is not None:
            self.exporter = PromExporter(collectors=[self._prom_samples])
            if self.prom_port is not None:
                bound = self.exporter.serve(port=self.prom_port)
                self.queue._emit("prom_endpoint", port=bound)
        supervisor = threading.Thread(
            target=self._supervisor_loop, name=f"{self.name}-supervisor",
            daemon=True)
        supervisor.start()
        self._threads.append(supervisor)
        for slot in range(self.slots):
            thread = threading.Thread(
                target=self._slot_loop, args=(slot,),
                name=f"{self.name}-slot{slot}", daemon=True)
            thread.start()
            self._threads.append(thread)
        return self

    def stop(self, timeout: float = 30.0) -> None:
        """Graceful drain: checkpoint in-flight jobs, release, shut down.

        Idempotent.  Slots observe the drain flag at their next
        generation boundary, release their jobs back to pending (the
        checkpoint written at the previous boundary makes the release
        loss-free), and exit.  The service journal gets a
        ``service_stop`` event and its ``run_end`` trailer — a drained
        service is a *finished* run, not an orphan.
        """
        if not self._started:
            return
        self._drain.set()
        deadline = time.monotonic() + float(timeout)
        for thread in self._threads:
            thread.join(max(0.0, deadline - time.monotonic()))
        self._stop.set()
        exporter, self.exporter = self.exporter, None
        if exporter is not None:
            if self.prom_textfile is not None:
                try:
                    exporter.write_textfile(self.prom_textfile)
                except OSError:
                    pass
            exporter.close()
        journal = self.queue.journal
        self.queue.journal = None
        if journal is not None and not journal.closed:
            journal.append("service_stop", counts=self.queue.counts())
            journal.run_end(status="completed")
            journal.close()
        self._started = False
        self._threads = []

    def __enter__(self) -> "JobService":
        return self.start()

    def __exit__(self, *exc_info):
        self.stop()
        return False

    # -- client surface ---------------------------------------------------------
    def submit(self, spec: JobSpec, name: Optional[str] = None) -> JobRecord:
        """Admit a job into this service's queue (may raise QueueFull)."""
        return self.queue.submit(spec, name=name)

    def wait(self, job_id: str, timeout: Optional[float] = None,
             poll_s: float = 0.05) -> JobRecord:
        """Block until *job_id* reaches a terminal state.

        Accepts a job id or the :class:`JobRecord` that ``submit``
        returned.  Raises ``TimeoutError`` with the job's last observed
        state if the deadline passes first.
        """
        job_id = _job_id(job_id)
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            record = self.queue.load(job_id)
            if record.state in TERMINAL_STATES:
                return record
            if deadline is not None and time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {job_id!r} still {record.state!r} after "
                    f"{timeout}s")
            time.sleep(poll_s)

    def cancel(self, job_id: str) -> str:
        return self.queue.cancel(_job_id(job_id))

    # -- slot loop ---------------------------------------------------------------
    def _slot_loop(self, slot: int) -> None:
        owner = f"{self.name}-{os.getpid()}-slot{slot}"
        runner = JobRunner(self.queue, self.registry, owner,
                           lease_s=self.lease_s, drain=self._drain.is_set)
        while not self._drain.is_set():
            try:
                record = self.queue.claim(owner, self.lease_s)
            except OSError:
                record = None
            if record is None:
                # Idle wait doubles as the drain poll.
                self._drain.wait(self.poll_interval_s)
                continue
            self._execute(runner, record, owner)

    def _execute(self, runner: JobRunner, record: JobRecord,
                 owner: str) -> None:
        """Run one claimed job and translate its outcome into the queue."""
        job_id = record.job_id
        try:
            summary = runner.run(record)
        except LeaseLost:
            # Someone recovered our lease while we ran: the new owner's
            # trajectory is authoritative; walk away without touching
            # any state (the control check fired before journaling).
            _obs_metrics.inc("service.lease_lost")
            return
        except DrainRequested:
            self._transition(self.queue.release, job_id, owner,
                             reason="drain")
            return
        except JobCancelled:
            self._transition(self.queue.fail, job_id, owner,
                             error="cancelled", retryable=False)
            return
        except JobDeadlineExceeded:
            self._transition(self.queue.fail, job_id, owner,
                             error="deadline", retryable=False)
            return
        except Exception as exc:  # noqa: BLE001 - job faults are data here
            self._transition(self.queue.fail, job_id, owner,
                             error=f"{type(exc).__name__}: {exc}",
                             retryable=True)
            return
        self._transition(self.queue.complete, job_id, owner,
                         result=summary)

    def _transition(self, method, job_id: str, owner: str, **kwargs) -> None:
        """Apply a queue transition, tolerating a concurrent takeover."""
        try:
            method(job_id, owner, **kwargs)
        except LeaseLost:
            _obs_metrics.inc("service.lease_lost")

    # -- supervisor loop -----------------------------------------------------------
    def _supervisor_loop(self) -> None:
        while not self._stop.wait(self.recovery_interval_s):
            try:
                self.queue.recover_expired()
                registry = _obs_metrics.get_metrics()
                for state, depth in self.queue.counts().items():
                    registry.gauge(f"service.queue.{state}", depth)
                self._update_throughput(registry)
                if self.exporter is not None \
                        and self.prom_textfile is not None:
                    self.exporter.write_textfile(self.prom_textfile)
            except Exception:  # noqa: BLE001 - the sweep must never die
                _obs_metrics.inc("service.supervisor_errors")
            if self._drain.is_set():
                break

    def _update_throughput(self, registry) -> None:
        """Evaluator throughput from heartbeat nfev deltas.

        The per-job progress payloads the runners piggyback on lease
        renewals give a fleet-wide cumulative nfev; its delta between
        sweeps, over wall time, is the live evaluations/second gauge.
        A negative delta (job finished, lease retired) resets the
        baseline instead of publishing a bogus rate.
        """
        total_nfev = sum(
            int(progress.get("nfev", 0))
            for progress in self.queue.leased_progress().values()
        )
        now = time.monotonic()
        previous = self._last_nfev_sweep
        self._last_nfev_sweep = (now, total_nfev)
        if previous is None:
            return
        then, nfev_then = previous
        elapsed = now - then
        delta = total_nfev - nfev_then
        if elapsed > 0 and delta >= 0:
            registry.gauge("service.eval_per_s", delta / elapsed)

    def _prom_samples(self):
        """Collector: live queue depth + per-job progress gauges."""
        for state, depth in self.queue.counts().items():
            yield ("service_queue_depth", {"state": state}, float(depth))
        for job_id, progress in self.queue.leased_progress().items():
            labels = {"job": job_id}
            for key, metric in (("generation", "run_generation"),
                                ("nfev", "run_nfev"),
                                ("best", "run_best")):
                value = progress.get(key)
                if isinstance(value, (int, float)):
                    yield (metric, labels, float(value))
