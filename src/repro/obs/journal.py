"""Flight-recorder run journal: a crash-safe, append-only JSONL stream.

A long optimization run's evidence — convergence telemetry, failures,
retries, guard violations — used to live only in memory until an
ad-hoc export at the end, so a crash (or a resume on another machine)
lost the story.  :class:`RunJournal` fixes that the way real flight
recorders do: every event is appended to ``journal.jsonl`` *as it
happens*, one JSON object per line, with three durability guarantees:

1. **Line-atomic appends.**  Each event is serialized to one line and
   written with a single buffered write + flush, so concurrent threads
   can never interleave half-lines and a reader only ever sees whole
   events plus at most one truncated tail.
2. **Batched fsync.**  The file is fsync'd every ``fsync_every`` events
   or ``fsync_interval_s`` seconds (and always on ``run_start`` /
   ``resume`` / ``run_end`` / ``close``), bounding both the data a
   power cut can lose and the syscall cost per event.
3. **Self-repairing reopen.**  Opening an existing journal truncates a
   trailing partial line (the signature of a mid-write kill) before
   appending, so a resumed run continues the *same* file contiguously
   and :func:`replay_journal` never chokes on the wreckage.

The journal doubles as an ``on_generation`` sink: pass it to any
optimizer in :mod:`repro.optimize` and each
:class:`~repro.obs.telemetry.GenerationRecord` becomes a ``generation``
event.  Because it implements ``state()``/``restore()`` it rides inside
optimizer checkpoints like :class:`~repro.obs.telemetry.TelemetryRecorder`
does; on restore it appends a ``resume`` marker whose
``n_generations`` tells :func:`replay_journal` how many of the already
journaled generation events the resumed run is about to re-emit — the
replayed trace is therefore contiguous and duplicate-free even though
the file itself is append-only.

Components deeper in the stack (the batching evaluator, the compiled
engine, the guards layer) report through the process-wide *active
journal* (:func:`set_journal` / :func:`emit`), mirroring the global
tracer/metrics pattern: when no journal is installed an ``emit`` call
is one global load and a ``None`` check — nothing on the hot path.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import platform
import sys
import threading
import time
import warnings
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import repro
from repro.obs.telemetry import GenerationRecord, TelemetryRecorder

__all__ = [
    "JOURNAL_SCHEMA_VERSION",
    "JournalError",
    "RunJournal",
    "JournalReplay",
    "read_events",
    "read_tail_events",
    "replay_journal",
    "config_fingerprint",
    "get_journal",
    "set_journal",
    "set_thread_journal",
    "emit",
    "has_run_end",
]

#: Bump when the event vocabulary or field layout changes.
JOURNAL_SCHEMA_VERSION = 1

#: Environment knobs captured in every ``run_start`` header.
_ENV_KNOBS = ("REPRO_GUARDS", "REPRO_TRACE", "REPRO_RUNS_DIR")


class JournalError(RuntimeError):
    """A journal file cannot be written or replayed."""


def config_fingerprint(config) -> Optional[str]:
    """Deterministic sha1 of a JSON-serializable run configuration.

    ``None`` configs fingerprint to ``None``; non-serializable leaves
    degrade to their ``str()`` so the fingerprint never raises.
    """
    if config is None:
        return None
    text = json.dumps(config, sort_keys=True, default=str,
                      separators=(",", ":"))
    return hashlib.sha1(text.encode("utf-8")).hexdigest()


def _json_default(value):
    """Last-resort serializer: numpy scalars/arrays, then ``str``."""
    tolist = getattr(value, "tolist", None)
    if callable(tolist):
        return tolist()
    item = getattr(value, "item", None)
    if callable(item):
        return item()
    return str(value)


class RunJournal:
    """Append-only JSONL event stream for one optimization run.

    Parameters
    ----------
    path:
        The ``journal.jsonl`` file.  An existing file is *continued*
        (sequence numbers keep counting) after its trailing partial
        line, if any, is truncated away.
    run_id:
        Identifier stamped into the ``run_start`` header; defaults to
        the name of the directory containing *path*.
    fsync_every, fsync_interval_s:
        Fsync batching: the file is fsync'd after this many appended
        events or this many seconds, whichever comes first.  Lifecycle
        events (``run_start``/``resume``/``run_end``) always fsync.
    snapshot_every:
        Every this many ``generation`` events, a ``snapshot`` event
        with the global metrics counters is appended automatically
        (``0`` disables the periodic snapshots).
    """

    def __init__(self, path: str, run_id: Optional[str] = None,
                 fsync_every: int = 16, fsync_interval_s: float = 1.0,
                 snapshot_every: int = 10):
        self.path = str(path)
        directory = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(directory, exist_ok=True)
        if run_id is None:
            run_id = os.path.basename(directory) or "run"
        self.run_id = str(run_id)
        self.fsync_every = max(int(fsync_every), 1)
        self.fsync_interval_s = float(fsync_interval_s)
        self.snapshot_every = int(snapshot_every)
        self.telemetry = TelemetryRecorder()
        self.repaired_partial_line = False
        self._lock = threading.Lock()
        self._pending_fsync = 0
        self._last_fsync = time.monotonic()
        self._emit_error_warned = False
        self._generation_events = 0
        # Effective generation-event count already durable in the file
        # (after resume-truncation semantics) — restore() uses it to
        # detect generation events a torn tail destroyed but the
        # checkpoint still holds.
        self._file_generations = 0
        self._seq = self._repair_and_scan()
        self._handle: Optional[io.BufferedWriter] = open(self.path, "ab")

    # -- crash repair -------------------------------------------------------
    def _repair_and_scan(self) -> int:
        """Truncate a partial trailing line; return the last used seq."""
        try:
            with open(self.path, "rb") as handle:
                data = handle.read()
        except FileNotFoundError:
            return 0
        if not data:
            return 0
        if not data.endswith(b"\n"):
            # A mid-write kill left a torn tail; drop it so appended
            # events cannot concatenate onto garbage.
            keep = data.rfind(b"\n") + 1
            with open(self.path, "r+b") as handle:
                handle.truncate(keep)
                handle.flush()
                os.fsync(handle.fileno())
            data = data[:keep]
            self.repaired_partial_line = True
        lines = [line for line in data.split(b"\n") if line]
        last_seq = 0
        for raw in lines:
            try:
                event = json.loads(raw.decode("utf-8"))
            except (ValueError, UnicodeDecodeError):
                continue
            last_seq = int(event.get("seq", last_seq))
            kind = event.get("event")
            if kind == "generation":
                self._file_generations += 1
            elif kind == "resume":
                self._file_generations = min(
                    self._file_generations,
                    int(event.get("n_generations",
                                  self._file_generations)),
                )
        return last_seq if last_seq else len(lines)

    # -- core append --------------------------------------------------------
    def append(self, event: str, **fields) -> int:
        """Append one event line; returns its sequence number."""
        with self._lock:
            if self._handle is None:
                raise JournalError(
                    f"journal {self.path!r} is closed; cannot append "
                    f"{event!r}"
                )
            self._seq += 1
            record: Dict[str, object] = {
                "seq": self._seq,
                "t": round(time.time(), 6),
                "event": event,
            }
            record.update(fields)
            line = json.dumps(record, separators=(",", ":"),
                              default=_json_default) + "\n"
            self._handle.write(line.encode("utf-8"))
            self._handle.flush()
            self._pending_fsync += 1
            now = time.monotonic()
            if (self._pending_fsync >= self.fsync_every
                    or now - self._last_fsync >= self.fsync_interval_s):
                self._fsync_locked()
            return self._seq

    def _fsync_locked(self):
        os.fsync(self._handle.fileno())
        self._pending_fsync = 0
        self._last_fsync = time.monotonic()

    def flush(self, fsync: bool = True):
        """Flush buffered events; with *fsync*, force them to disk."""
        with self._lock:
            if self._handle is None:
                return
            self._handle.flush()
            if fsync:
                self._fsync_locked()

    # -- lifecycle events ---------------------------------------------------
    def run_start(self, config=None, seeds=None, **extra) -> int:
        """Write the run header (environment, versions, fingerprint)."""
        env = {knob: os.environ[knob] for knob in _ENV_KNOBS
               if knob in os.environ}
        seq = self.append(
            "run_start",
            run_id=self.run_id,
            schema=JOURNAL_SCHEMA_VERSION,
            package_version=repro.__version__,
            python=platform.python_version(),
            platform=sys.platform,
            pid=os.getpid(),
            env=env,
            config=config,
            config_fingerprint=config_fingerprint(config),
            seeds=seeds,
            **extra,
        )
        self.flush(fsync=True)
        return seq

    def run_end(self, status: str = "completed", metrics=None,
                **extra) -> int:
        """Write the run trailer with the final metrics counters."""
        if metrics is None:
            from repro.obs.metrics import get_metrics
            metrics = get_metrics()
        seq = self.append(
            "run_end",
            run_id=self.run_id,
            status=status,
            n_generations=len(self.telemetry),
            counters=metrics.counters(),
            **extra,
        )
        self.flush(fsync=True)
        return seq

    def snapshot(self, metrics=None, tracer=None, **extra) -> int:
        """Append a point-in-time metrics (and span-count) snapshot."""
        if metrics is None:
            from repro.obs.metrics import get_metrics
            metrics = get_metrics()
        if tracer is None:
            from repro.obs.tracer import get_tracer
            tracer = get_tracer()
        fields: Dict[str, object] = {
            "counters": metrics.counters(),
            "gauges": metrics.gauges(),
        }
        if tracer.enabled:
            records = tracer.records
            fields["n_spans"] = len(records)
            fields["span_time_s"] = float(
                sum(r.duration_s for r in records if r.parent_id is None)
            )
        fields.update(extra)
        return self.append("snapshot", **fields)

    def record_health(self, health) -> int:
        """Append a ``health`` event from a :class:`RunHealth` record."""
        return self.append("health", **health.as_dict())

    # -- on_generation sink -------------------------------------------------
    def __call__(self, record: GenerationRecord) -> None:
        """Journal one generation (the ``on_generation`` protocol)."""
        self.telemetry(record)
        self.append("generation", **record.as_dict())
        self._file_generations += 1
        self._generation_events += 1
        if (self.snapshot_every > 0
                and self._generation_events % self.snapshot_every == 0):
            self.snapshot()

    def __len__(self) -> int:
        return len(self.telemetry)

    def is_contiguous(self) -> bool:
        """Contiguity of the in-memory trace (delegates to telemetry)."""
        return self.telemetry.is_contiguous()

    # -- checkpoint support -------------------------------------------------
    def state(self) -> Dict[str, object]:
        """Serializable snapshot for optimizer checkpoint payloads."""
        return self.telemetry.state()

    def restore(self, state: Dict[str, object]) -> None:
        """Rewind to a checkpoint snapshot and journal a resume marker.

        The journal file itself is append-only, so nothing is erased;
        instead the ``resume`` event records how many generation events
        are still valid — :func:`replay_journal` truncates the replayed
        trace to that length, and the re-emitted generations (which the
        resumed run produces deterministically) take their place.

        A torn tail can leave the *file* behind the *checkpoint* (the
        destroyed line was a generation event the checkpoint already
        covered).  The marker therefore keeps only what file and
        checkpoint agree on, and the checkpoint's records beyond that
        point are re-journaled so the replayed trace has no gap.
        """
        self.telemetry.restore(state)
        keep = min(len(self.telemetry), self._file_generations)
        self.append("resume", run_id=self.run_id, n_generations=keep)
        for record in self.telemetry.records[keep:]:
            self.append("generation", **record.as_dict())
        self._file_generations = len(self.telemetry)
        self.flush(fsync=True)

    # -- lifecycle ----------------------------------------------------------
    def close(self):
        """Flush, fsync, and close the file (idempotent)."""
        with self._lock:
            if self._handle is None:
                return
            self._handle.flush()
            self._fsync_locked()
            self._handle.close()
            self._handle = None

    @property
    def closed(self) -> bool:
        return self._handle is None

    def __enter__(self) -> "RunJournal":
        return self

    def __exit__(self, *exc_info):
        self.close()
        return False


# ----------------------------------------------------------------------
# the process-wide active journal
# ----------------------------------------------------------------------

_active_journal: Optional[RunJournal] = None
_thread_journals = threading.local()


def get_journal() -> Optional[RunJournal]:
    """The installed flight recorder, or ``None`` when not recording.

    A journal installed for the *calling thread* with
    :func:`set_thread_journal` shadows the process-wide one — runner
    slots in :mod:`repro.service` use this so concurrent jobs record
    into their own journals instead of cross-talking through the
    global.
    """
    journal = getattr(_thread_journals, "journal", None)
    if journal is not None:
        return journal
    return _active_journal


def set_journal(journal: Optional[RunJournal]) -> Optional[RunJournal]:
    """Install (or clear, with ``None``) the active journal.

    Returns the previously active journal so scoped users can restore
    it (see :func:`repro.obs.runs.recorded_run`).
    """
    global _active_journal
    previous, _active_journal = _active_journal, journal
    return previous


def set_thread_journal(journal: Optional[RunJournal]
                       ) -> Optional[RunJournal]:
    """Install (or clear) a journal scoped to the *calling thread* only.

    While set, :func:`get_journal`/:func:`emit` in this thread resolve
    to it instead of the process-wide journal; other threads are
    unaffected.  Returns the thread's previously scoped journal so
    callers can restore it.
    """
    previous = getattr(_thread_journals, "journal", None)
    _thread_journals.journal = journal
    return previous


def emit(event: str, **fields) -> None:
    """Append an event to the active journal, if one is installed.

    The ambient hook instrumented components call: free (one
    thread-local + one global load) when no journal is active, and —
    because a failing flight recorder must never take the flight down
    — an ``OSError`` from the disk is downgraded to a one-time warning
    instead of propagating into the optimization run.
    """
    journal = get_journal()
    if journal is None:
        return
    try:
        journal.append(event, **fields)
    except (OSError, JournalError) as exc:
        if not journal._emit_error_warned:
            journal._emit_error_warned = True
            warnings.warn(
                f"run journal {journal.path!r} stopped recording: {exc}",
                stacklevel=2,
            )


# ----------------------------------------------------------------------
# replay
# ----------------------------------------------------------------------

def has_run_end(path: str, tail_bytes: int = 65536) -> bool:
    """Whether the journal at *path* carries a ``run_end`` trailer.

    Reads only the final *tail_bytes* of the file, so probing hundreds
    of archived runs (the ``repro-obs gc`` orphan scan) stays cheap.
    The trailer is always among the last events of a finished run —
    a resumed run that finished later appended a fresh one.
    """
    try:
        with open(path, "rb") as handle:
            handle.seek(0, os.SEEK_END)
            size = handle.tell()
            handle.seek(max(0, size - tail_bytes))
            tail = handle.read()
    except OSError:
        return False
    for raw in reversed(tail.split(b"\n")):
        if not raw:
            continue
        try:
            event = json.loads(raw.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            continue
        if isinstance(event, dict) and event.get("event") == "run_end":
            return True
    return False


def read_tail_events(path: str, n: int, event: Optional[str] = None,
                     block_size: int = 65536):
    """The last *n* events of a journal, without reading the whole file.

    Walks the file backwards in *block_size* chunks, parsing complete
    lines as they become available, and stops as soon as *n* matching
    events (optionally filtered by *event* type) are in hand — tailing
    the last 20 events of a multi-gigabyte journal costs one or two
    block reads.  Returns ``(events_in_file_order, truncated_tail)``
    with the same damage tolerance as :func:`read_events`: a torn final
    line is dropped and flagged, corrupt interior lines are skipped.
    """
    if n <= 0:
        return [], False
    with open(path, "rb") as handle:
        handle.seek(0, os.SEEK_END)
        position = handle.tell()
        truncated = False
        drop_last = True  # until the file's true final line is judged
        carry = b""       # partial first line of the processed region
        collected: List[dict] = []
        while position > 0 and len(collected) < n:
            step = min(block_size, position)
            position -= step
            handle.seek(position)
            block = handle.read(step) + carry
            lines = block.split(b"\n")
            # The first fragment may continue a line from the block
            # before it (earlier in the file) — hold it back unless we
            # have reached the start of the file.
            carry = lines[0] if position > 0 else b""
            start = 1 if position > 0 else 0
            for raw in reversed(lines[start:]):
                if drop_last:
                    # The bytes after the final newline: a torn tail if
                    # non-empty, the usual trailing split if empty.
                    drop_last = False
                    if raw:
                        truncated = True
                    continue
                if not raw:
                    continue
                try:
                    record = json.loads(raw.decode("utf-8"))
                except (ValueError, UnicodeDecodeError):
                    continue
                if not isinstance(record, dict):
                    continue
                if event is not None and record.get("event") != event:
                    continue
                collected.append(record)
                if len(collected) >= n:
                    break
    collected.reverse()
    return collected, truncated


def read_events(path: str):
    """Parse a journal file into ``(events, truncated_tail, n_corrupt)``.

    A final line without a newline (or that fails to parse) is the
    signature of a mid-write kill: it is dropped and reported through
    ``truncated_tail`` rather than raised.  Corrupt *interior* lines
    are skipped and counted in ``n_corrupt`` — replay is a recovery
    path, and one torn sector must not make the rest unreadable.
    """
    with open(path, "rb") as handle:
        data = handle.read()
    truncated = bool(data) and not data.endswith(b"\n")
    raw_lines = [line for line in data.split(b"\n") if line]
    events: List[dict] = []
    n_corrupt = 0
    for index, raw in enumerate(raw_lines):
        try:
            event = json.loads(raw.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            if index == len(raw_lines) - 1:
                truncated = True
            else:
                n_corrupt += 1
            continue
        if not isinstance(event, dict):
            n_corrupt += 1
            continue
        events.append(event)
    return events, truncated, n_corrupt


@dataclass
class JournalReplay:
    """A journal file decoded back into its run story.

    ``telemetry`` holds the effective convergence trace: generation
    events in order, truncated at each ``resume`` marker so the
    re-emitted generations of a resumed run replace (never duplicate)
    the ones the interrupted run wrote after its last checkpoint.
    """

    path: str
    events: List[dict] = field(default_factory=list)
    truncated_tail: bool = False
    n_corrupt: int = 0
    telemetry: TelemetryRecorder = field(default_factory=TelemetryRecorder)

    @property
    def run_start(self) -> Optional[dict]:
        for event in self.events:
            if event.get("event") == "run_start":
                return event
        return None

    @property
    def run_end(self) -> Optional[dict]:
        for event in reversed(self.events):
            if event.get("event") == "run_end":
                return event
        return None

    @property
    def n_resumes(self) -> int:
        return sum(1 for e in self.events if e.get("event") == "resume")

    def counts(self) -> Dict[str, int]:
        """Event counts by type."""
        totals: Dict[str, int] = {}
        for event in self.events:
            name = str(event.get("event"))
            totals[name] = totals.get(name, 0) + 1
        return totals

    def is_contiguous(self) -> bool:
        """Whether the replayed trace has no gaps or duplicates."""
        return self.telemetry.is_contiguous()

    def select(self, event: str) -> List[dict]:
        """All events of one type, in journal order."""
        return [e for e in self.events if e.get("event") == event]


def replay_journal(path: str) -> JournalReplay:
    """Decode *path* into a :class:`JournalReplay`.

    Applies the resume semantics: a ``resume`` event truncates the
    accumulated generation trace to its ``n_generations``, exactly as
    :meth:`RunJournal.restore` rewound the live recorder.
    """
    events, truncated, n_corrupt = read_events(path)
    records: List[GenerationRecord] = []
    for event in events:
        kind = event.get("event")
        if kind == "generation":
            try:
                records.append(GenerationRecord.from_dict(event))
            except (KeyError, TypeError, ValueError):
                n_corrupt += 1
        elif kind == "resume":
            keep = int(event.get("n_generations", len(records)))
            del records[keep:]
    telemetry = TelemetryRecorder()
    telemetry.records = records
    return JournalReplay(
        path=str(path),
        events=events,
        truncated_tail=truncated,
        n_corrupt=n_corrupt,
        telemetry=telemetry,
    )
