"""Durable on-disk job queue with lease-based ownership.

The queue is a directory tree in which **a job's state is the
directory its record file lives in**::

    <root>/
        pending/<job_id>.json   # waiting (or backing off before retry)
        leased/<job_id>.json    # owned by a runner; lease stamped inside
        done/<job_id>.json      # terminal: finished, result summary inside
        failed/<job_id>.json    # terminal: error inside
        cancel/<job_id>         # cooperative-cancellation marker

Every transition is one atomic ``os.replace`` of a freshly written
record (temp file + rename, the same discipline as
:class:`repro.optimize.checkpoint.FileCheckpointStore`), so a crash at
any instant leaves each job in exactly one well-defined state:

* **Claiming is race-free without locks.**  A claimer renames
  ``pending/X`` to ``leased/X``; of N concurrent claimers exactly one
  rename succeeds and the losers get ``FileNotFoundError`` and move on.
* **A crash between rename and lease stamp is safe.**  The leased file
  still holds the old record (no lease inside), which
  :meth:`JobQueue.recover_expired` treats as already expired — the job
  is recovered on the supervisor's next sweep.
* **Torn files are quarantined, never fatal.**  A record that fails to
  parse is renamed to ``<file>.corrupt`` and reported; the rest of the
  queue keeps flowing (a single corrupted sector must not stop the
  service).

Retries observe the shared capped-exponential backoff *with
deterministic seeded jitter* (:func:`repro.optimize.faults.backoff_delay`
keyed by job id), so a burst of jobs failing on the same transient
cause does not retry in a synchronized wave.

All state transitions are journaled (``job_submitted``, ``job_leased``,
``job_retried``, ``job_orphan_recovered``, ``job_done``, …) through the
journal the owning service installs — or the ambient
:func:`repro.obs.journal.emit` hook when used standalone — and counted
in the metrics registry under ``service.*``.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from typing import Dict, Iterable, List, Optional, Tuple

from repro.obs import journal as _obs_journal
from repro.obs import metrics as _obs_metrics
from repro.optimize.faults import (
    BACKOFF_BASE,
    BACKOFF_CAP,
    backoff_delay,
    retry_transient,
)
from repro.service.jobs import (
    JOB_STATE_DONE,
    JOB_STATE_FAILED,
    JOB_STATE_LEASED,
    JOB_STATE_PENDING,
    TERMINAL_STATES,
    JobRecord,
    JobSpec,
    new_job_id,
)

__all__ = [
    "QueueFull",
    "LeaseLost",
    "JobNotFound",
    "JobQueue",
    "live_job_ids",
]

_STATE_DIRS = (JOB_STATE_PENDING, JOB_STATE_LEASED, JOB_STATE_DONE,
               JOB_STATE_FAILED)
_CANCEL_DIR = "cancel"
#: Lookup order for :meth:`JobQueue.load` — terminal states win, so a
#: crash that left a stale ``leased/`` copy behind a terminal record
#: never masks the outcome.
_LOOKUP_ORDER = (JOB_STATE_DONE, JOB_STATE_FAILED, JOB_STATE_LEASED,
                 JOB_STATE_PENDING)


class QueueFull(RuntimeError):
    """Admission control rejected a submit (backpressure)."""


class LeaseLost(RuntimeError):
    """The caller no longer owns the job it tried to act on.

    Raised when the lease file is gone (job recovered, completed, or
    re-queued by someone else) or stamped with a different owner.  A
    runner receiving this must abandon the job *without* touching its
    state — the new owner's trajectory is authoritative.
    """


class JobNotFound(KeyError):
    """No record of the job in any state directory."""


class JobQueue:
    """The durable queue; see the module docstring for the layout.

    Parameters
    ----------
    root:
        Queue directory (created on first use).
    max_pending:
        Admission-control ceiling: :meth:`submit` raises
        :class:`QueueFull` while this many jobs are already pending.
        The count-then-write window makes the ceiling approximate under
        concurrent submitters — it bounds the backlog, it is not a
        semaphore.
    retry_backoff_base, retry_backoff_cap:
        Failed-job retry backoff schedule (seconds), jittered
        deterministically by job id.
    retry_attempts:
        Transient-``OSError`` retries per file read/write.
    """

    def __init__(self, root: str, max_pending: int = 256,
                 retry_backoff_base: float = BACKOFF_BASE,
                 retry_backoff_cap: float = BACKOFF_CAP,
                 retry_attempts: int = 3):
        self.root = str(root)
        if max_pending < 1:
            raise ValueError(f"max_pending must be >= 1, got {max_pending}")
        self.max_pending = int(max_pending)
        self.retry_backoff_base = float(retry_backoff_base)
        self.retry_backoff_cap = float(retry_backoff_cap)
        self.retry_attempts = int(retry_attempts)
        #: Journal receiving transition events; ``None`` falls back to
        #: the ambient :func:`repro.obs.journal.emit` hook.
        self.journal = None
        self.n_quarantined = 0
        for name in _STATE_DIRS + (_CANCEL_DIR,):
            os.makedirs(os.path.join(self.root, name), exist_ok=True)

    # -- paths / io ----------------------------------------------------------
    def _path(self, state: str, job_id: str) -> str:
        return os.path.join(self.root, state, f"{job_id}.json")

    def _cancel_path(self, job_id: str) -> str:
        return os.path.join(self.root, _CANCEL_DIR, job_id)

    def _write_record(self, state: str, record: JobRecord) -> str:
        """Atomically materialize *record* in *state*'s directory."""
        target = self._path(state, record.job_id)
        blob = json.dumps(record.to_dict(), sort_keys=True,
                          separators=(",", ":")).encode("utf-8")

        def write():
            fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".job.tmp")
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(blob)
                os.replace(tmp, target)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise

        retry_transient(write, attempts=self.retry_attempts, no_retry=(),
                        jitter_key=record.job_id)
        return target

    def _read_record(self, path: str) -> Optional[JobRecord]:
        """Parse one record; quarantine (never raise on) torn files."""
        try:
            data = retry_transient(
                self._read_bytes, path, attempts=self.retry_attempts)
        except FileNotFoundError:
            return None
        try:
            return JobRecord.from_dict(json.loads(data.decode("utf-8")))
        except (ValueError, KeyError, TypeError, UnicodeDecodeError) as exc:
            self._quarantine(path, exc)
            return None

    @staticmethod
    def _read_bytes(path: str) -> bytes:
        with open(path, "rb") as handle:
            return handle.read()

    def _quarantine(self, path: str, reason) -> None:
        corrupt = path + ".corrupt"
        try:
            os.replace(path, corrupt)
        except OSError:
            corrupt = path
        self.n_quarantined += 1
        _obs_metrics.inc("service.jobs_quarantined")
        self._emit("job_quarantined", path=str(path),
                   reason=str(reason)[:200])

    def _emit(self, event: str, **fields) -> None:
        """Journal a transition; a broken recorder never stops the queue."""
        _obs_metrics.inc(f"service.{event}")
        try:
            if self.journal is not None:
                self.journal.append(event, **fields)
            else:
                _obs_journal.emit(event, **fields)
        except Exception:  # noqa: BLE001 - flight recorder must not crash us
            pass

    def _list_ids(self, state: str) -> List[str]:
        try:
            entries = os.listdir(os.path.join(self.root, state))
        except FileNotFoundError:
            return []
        return sorted(entry[:-5] for entry in entries
                      if entry.endswith(".json"))

    # -- submission ----------------------------------------------------------
    def submit(self, spec: JobSpec, name: Optional[str] = None,
               job_id: Optional[str] = None,
               now: Optional[float] = None) -> JobRecord:
        """Admit one job; raises :class:`QueueFull` at the backlog cap."""
        now = time.time() if now is None else float(now)
        backlog = len(self._list_ids(JOB_STATE_PENDING))
        if backlog >= self.max_pending:
            self._emit("job_rejected", reason="queue_full",
                       backlog=backlog, max_pending=self.max_pending)
            raise QueueFull(
                f"queue {self.root!r} is full "
                f"({backlog}/{self.max_pending} pending)")
        record = JobRecord(
            job_id=job_id or new_job_id(name or spec.kind),
            spec=spec, state=JOB_STATE_PENDING, submitted_at=now)
        self._write_record(JOB_STATE_PENDING, record)
        self._emit("job_submitted", job_id=record.job_id, kind=spec.kind,
                   algorithm=spec.algorithm if spec.kind == "optimize"
                   else None, experiment=spec.experiment)
        return record

    # -- claiming / leasing ---------------------------------------------------
    def claim(self, owner: str, lease_s: float,
              now: Optional[float] = None) -> Optional[JobRecord]:
        """Lease the oldest eligible pending job, or ``None``.

        FIFO by job id (ids embed the submission timestamp); jobs whose
        retry backoff gate (``not_before``) is still in the future are
        skipped.  The pending→leased rename is the atomic claim: of
        concurrent claimers exactly one wins each job.
        """
        now = time.time() if now is None else float(now)
        for job_id in self._list_ids(JOB_STATE_PENDING):
            pending_path = self._path(JOB_STATE_PENDING, job_id)
            record = self._read_record(pending_path)
            if record is None or record.not_before > now:
                continue
            leased_path = self._path(JOB_STATE_LEASED, job_id)
            try:
                os.replace(pending_path, leased_path)
            except FileNotFoundError:
                continue  # another slot won the rename
            record.state = JOB_STATE_LEASED
            record.lease = {"owner": str(owner), "leased_at": now,
                            "expires_at": now + float(lease_s)}
            if record.started_at is None:
                record.started_at = now
            self._write_record(JOB_STATE_LEASED, record)
            self._emit("job_leased", job_id=job_id, owner=str(owner),
                       attempt=record.attempt, takeovers=record.takeovers,
                       expires_at=record.lease["expires_at"])
            return record
        return None

    def _owned(self, job_id: str, owner: str) -> JobRecord:
        """The leased record if *owner* still holds it; else LeaseLost."""
        record = self._read_record(self._path(JOB_STATE_LEASED, job_id))
        if record is None or record.lease is None \
                or record.lease.get("owner") != str(owner):
            raise LeaseLost(
                f"{owner!r} no longer holds the lease on {job_id!r}")
        return record

    def renew(self, job_id: str, owner: str, lease_s: float,
              now: Optional[float] = None,
              progress: Optional[dict] = None) -> JobRecord:
        """Extend the lease (the runner's heartbeat).

        *progress* — a small JSON-able dict (generation, nfev, best) —
        rides inside the lease record, so live per-job telemetry costs
        nothing beyond the heartbeat write the runner already pays.
        It is visible through :meth:`leased_progress` until the lease
        retires; no ``JobRecord`` schema change is involved.
        """
        now = time.time() if now is None else float(now)
        record = self._owned(job_id, owner)
        record.lease["expires_at"] = now + float(lease_s)
        if progress is not None:
            record.lease["progress"] = dict(progress)
        self._write_record(JOB_STATE_LEASED, record)
        _obs_metrics.inc("service.lease_renewals")
        return record

    def leased_progress(self) -> Dict[str, dict]:
        """Latest heartbeat progress of every currently leased job."""
        progress: Dict[str, dict] = {}
        for job_id in self._list_ids(JOB_STATE_LEASED):
            record = self._read_record(self._path(JOB_STATE_LEASED, job_id))
            if record is None or record.lease is None:
                continue
            payload = record.lease.get("progress")
            if isinstance(payload, dict):
                progress[job_id] = dict(payload)
        return progress

    # -- terminal / requeue transitions ---------------------------------------
    def _finish(self, record: JobRecord, state: str) -> None:
        """Write the terminal record, then retire the leased copy."""
        record.lease = None
        self._write_record(state, record)
        try:
            os.unlink(self._path(JOB_STATE_LEASED, record.job_id))
        except OSError:
            pass
        self._clear_cancel(record.job_id)

    def complete(self, job_id: str, owner: str,
                 result: Optional[dict] = None,
                 now: Optional[float] = None) -> JobRecord:
        """Terminal success: leased → done with a small result summary."""
        now = time.time() if now is None else float(now)
        record = self._owned(job_id, owner)
        record.state = JOB_STATE_DONE
        record.result = dict(result or {})
        record.finished_at = now
        self._finish(record, JOB_STATE_DONE)
        self._emit("job_done", job_id=job_id, owner=str(owner),
                   attempt=record.attempt, takeovers=record.takeovers,
                   wall_time_s=(now - record.submitted_at))
        return record

    def fail(self, job_id: str, owner: str, error: str,
             retryable: bool = True,
             now: Optional[float] = None) -> JobRecord:
        """Failure: retry with jittered backoff, or fail terminally.

        A retryable failure within the spec's ``max_retries`` moves the
        job back to pending behind a ``not_before`` gate computed by
        :func:`repro.optimize.faults.backoff_delay` keyed on the job id
        — deterministic for the job, de-synchronized across jobs.
        """
        now = time.time() if now is None else float(now)
        record = self._owned(job_id, owner)
        record.attempt += 1
        record.error = str(error)[:500]
        if retryable and record.attempt <= record.spec.max_retries:
            delay = backoff_delay(
                record.attempt - 1,
                self.retry_backoff_base, self.retry_backoff_cap,
                key=job_id)
            record.state = JOB_STATE_PENDING
            record.not_before = now + delay
            record.lease = None
            self._write_record(JOB_STATE_PENDING, record)
            try:
                os.unlink(self._path(JOB_STATE_LEASED, job_id))
            except OSError:
                pass
            self._emit("job_retried", job_id=job_id, owner=str(owner),
                       attempt=record.attempt, backoff_s=delay,
                       error=record.error)
            return record
        record.state = JOB_STATE_FAILED
        record.finished_at = now
        self._finish(record, JOB_STATE_FAILED)
        self._emit("job_failed", job_id=job_id, owner=str(owner),
                   attempt=record.attempt, error=record.error)
        return record

    def release(self, job_id: str, owner: str, reason: str = "drain",
                now: Optional[float] = None) -> JobRecord:
        """Hand a leased job back to pending intact (graceful drain).

        Neither the attempt counter nor the takeover counter moves —
        the job simply waits for the next service, resuming from its
        checkpoint as if never claimed.
        """
        record = self._owned(job_id, owner)
        record.state = JOB_STATE_PENDING
        record.lease = None
        record.not_before = 0.0
        self._write_record(JOB_STATE_PENDING, record)
        try:
            os.unlink(self._path(JOB_STATE_LEASED, job_id))
        except OSError:
            pass
        self._emit("job_released", job_id=job_id, owner=str(owner),
                   reason=reason)
        return record

    # -- crash recovery --------------------------------------------------------
    def recover_expired(self, now: Optional[float] = None) -> List[str]:
        """Re-queue every leased job whose lease expired (or never stuck).

        The supervisor's sweep.  A leased file shadowed by a terminal
        record (crash between terminal write and leased unlink) is
        simply retired.  Recovered jobs keep their checkpoint — the
        next claimer resumes them bit-identically — and count a
        takeover, not a retry.
        """
        now = time.time() if now is None else float(now)
        recovered: List[str] = []
        for job_id in self._list_ids(JOB_STATE_LEASED):
            leased_path = self._path(JOB_STATE_LEASED, job_id)
            terminal = next(
                (s for s in TERMINAL_STATES
                 if os.path.exists(self._path(s, job_id))), None)
            if terminal is not None:
                try:
                    os.unlink(leased_path)
                except OSError:
                    pass
                continue
            record = self._read_record(leased_path)
            if record is None:
                continue  # torn lease file: quarantined above
            expired = (record.lease is None
                       or float(record.lease.get("expires_at", 0.0)) <= now)
            if not expired:
                continue
            previous_owner = (record.lease or {}).get("owner")
            record.state = JOB_STATE_PENDING
            record.lease = None
            record.not_before = 0.0
            record.takeovers += 1
            self._write_record(JOB_STATE_PENDING, record)
            try:
                os.unlink(leased_path)
            except OSError:
                pass
            self._emit("job_orphan_recovered", job_id=job_id,
                       previous_owner=previous_owner,
                       takeovers=record.takeovers)
            recovered.append(job_id)
        return recovered

    # -- cancellation -----------------------------------------------------------
    def cancel(self, job_id: str) -> str:
        """Request cancellation; returns the job's state at request time.

        A still-pending job fails immediately; a leased job gets a
        marker its runner observes at the next generation boundary
        (cooperative cancellation — no state is torn mid-write).
        """
        pending_path = self._path(JOB_STATE_PENDING, job_id)
        record = self._read_record(pending_path)
        if record is not None:
            try:
                os.unlink(pending_path)
            except FileNotFoundError:
                record = None  # claimed in the window; fall through
            if record is not None:
                record.state = JOB_STATE_FAILED
                record.error = "cancelled"
                record.finished_at = time.time()
                record.lease = None
                self._write_record(JOB_STATE_FAILED, record)
                self._emit("job_cancelled", job_id=job_id, was="pending")
                return JOB_STATE_FAILED
        state = self.state_of(job_id)  # raises JobNotFound if unknown
        if state in TERMINAL_STATES:
            return state
        with open(self._cancel_path(job_id), "w", encoding="utf-8") as f:
            f.write(str(time.time()))
        self._emit("job_cancel_requested", job_id=job_id, was=state)
        return state

    def cancel_requested(self, job_id: str) -> bool:
        return os.path.exists(self._cancel_path(job_id))

    def _clear_cancel(self, job_id: str) -> None:
        try:
            os.unlink(self._cancel_path(job_id))
        except OSError:
            pass

    # -- inspection --------------------------------------------------------------
    def load(self, job_id: str) -> JobRecord:
        """The job's current record; terminal states take precedence.

        The state directories are read one after another, so a job
        that moves between two reads (pending→leased, leased→done) can
        be missed by one scan.  A miss therefore scans again, and only
        two empty scans in a row mean the job does not exist.
        """
        for _ in range(2):
            for state in _LOOKUP_ORDER:
                record = self._read_record(self._path(state, job_id))
                if record is not None:
                    return record
        raise JobNotFound(job_id)

    def state_of(self, job_id: str) -> str:
        return self.load(job_id).state

    def counts(self) -> Dict[str, int]:
        """Backlog by state (the supervisor exports these as gauges)."""
        return {state: len(self._list_ids(state)) for state in _STATE_DIRS}

    def list_jobs(self, state: Optional[str] = None
                  ) -> List[Tuple[str, str]]:
        """``(job_id, state)`` pairs, optionally filtered to one state."""
        states: Iterable[str] = (state,) if state else _STATE_DIRS
        return [(job_id, s) for s in states for job_id in self._list_ids(s)]


def live_job_ids(service_root: str) -> List[str]:
    """Job ids that still own their run directory (pending or leased).

    Used by ``repro-obs gc`` to protect resumable jobs' run dirs — a
    released or orphaned job has no ``run_end`` trailer *by design*
    (its checkpoint must survive for takeover), so the orphan scan must
    not collect it.  Reads the queue layout directly; tolerant of a
    root that is not (yet) a queue.
    """
    queue_root = os.path.join(str(service_root), "queue")
    ids: List[str] = []
    for state in (JOB_STATE_PENDING, JOB_STATE_LEASED):
        try:
            entries = os.listdir(os.path.join(queue_root, state))
        except OSError:
            continue
        ids.extend(entry[:-5] for entry in entries
                   if entry.endswith(".json"))
    return sorted(set(ids))
