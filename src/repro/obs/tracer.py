"""Nested-span tracing with zero cost when disabled.

The optimization stack performs thousands of MNA solves per run; this
tracer answers *where the wall clock goes* — how much of a
``goal_attainment_improved`` run is spent in the compiled batch solve,
the scalar fallback, the DC bias solver, or SLSQP bookkeeping.

Design constraints, in order:

1. **Disabled tracing must be free.**  Every instrumented hot path
   (batch solves, DC Newton iterations, evaluator calls) goes through
   :meth:`Tracer.span`; when the tracer is disabled that call returns a
   shared no-op context manager — one attribute check, no allocation.
   The tier-1 suite enforces < 3% overhead on the batched benchmark.
2. **Nesting is structural.**  Spans carry parent ids maintained on a
   per-thread stack, so the recorded buffer reconstructs the exact call
   tree (:meth:`Tracer.span_tree`) and a flamegraph-style aggregation
   (:meth:`Tracer.format_spans`).  Spans opened on a shard thread
   of a population evaluation start a root of their own, because
   each thread keeps its own stack.

Tracing is opt-in: set ``REPRO_TRACE=1`` in the environment, construct
``Tracer(enabled=True)``, or call ``get_tracer().enable()``.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

__all__ = [
    "TRACE_ENV",
    "SpanRecord",
    "Tracer",
    "get_tracer",
    "set_tracer",
    "span",
    "traced",
    "trace_enabled_by_env",
]

#: Environment variable that switches the global tracer on.
TRACE_ENV = "REPRO_TRACE"

_TRUTHY = ("1", "true", "yes", "on")


def trace_enabled_by_env() -> bool:
    """Whether ``REPRO_TRACE`` requests tracing."""
    return os.environ.get(TRACE_ENV, "").strip().lower() in _TRUTHY


@dataclass
class SpanRecord:
    """One completed span: a named, timed slice of the run.

    ``start_s`` is a ``time.monotonic`` timestamp — differences are
    meaningful within one process, absolute values are not.  ``pid``
    names the recording process; archived multi-process traces carry
    more than one.
    """

    span_id: int
    parent_id: Optional[int]
    name: str
    start_s: float
    duration_s: float
    pid: int
    meta: Dict[str, object] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start_s": self.start_s,
            "duration_s": self.duration_s,
            "pid": self.pid,
            "meta": dict(self.meta),
        }


class _NullSpan:
    """The shared no-op span handed out while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False

    def annotate(self, **meta) -> "_NullSpan":
        return self


_NULL_SPAN = _NullSpan()


class _Span:
    """A live span; records itself into the tracer on ``__exit__``."""

    __slots__ = ("_tracer", "name", "meta", "_start", "_span_id",
                 "_parent_id")

    def __init__(self, tracer: "Tracer", name: str, meta: Dict[str, object]):
        self._tracer = tracer
        self.name = name
        self.meta = meta

    def annotate(self, **meta) -> "_Span":
        """Attach metadata (batch sizes, counts) to the span."""
        self.meta.update(meta)
        return self

    def __enter__(self) -> "_Span":
        tracer = self._tracer
        self._span_id = tracer._new_id()
        stack = tracer._stack()
        self._parent_id = stack[-1] if stack else None
        stack.append(self._span_id)
        self._start = time.monotonic()
        return self

    def __exit__(self, *exc_info) -> bool:
        duration = time.monotonic() - self._start
        tracer = self._tracer
        stack = tracer._stack()
        if stack and stack[-1] == self._span_id:
            stack.pop()
        tracer._append(SpanRecord(
            span_id=self._span_id,
            parent_id=self._parent_id,
            name=self.name,
            start_s=self._start,
            duration_s=duration,
            pid=os.getpid(),
            meta=self.meta,
        ))
        return False


class Tracer:
    """Collects nested :class:`SpanRecord` buffers, thread-safely.

    Each thread keeps its own span stack (nesting never crosses
    threads); the completed-record buffer is shared and lock-guarded.
    """

    def __init__(self, enabled: Optional[bool] = None):
        self.enabled = trace_enabled_by_env() if enabled is None \
            else bool(enabled)
        self._lock = threading.Lock()
        self._records: List[SpanRecord] = []
        self._local = threading.local()
        self._id_counter = 0

    # -- recording ----------------------------------------------------------
    def span(self, name: str, **meta):
        """A context manager timing one named slice of work.

        While the tracer is disabled this returns a shared no-op object
        — the instrumented hot paths pay one attribute check and one
        call, nothing else.
        """
        if not self.enabled:
            return _NULL_SPAN
        return _Span(self, name, meta)

    def trace(self, name: Optional[str] = None) -> Callable:
        """Decorator form of :meth:`span`."""
        def decorate(fn: Callable) -> Callable:
            span_name = name or fn.__qualname__

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if not self.enabled:
                    return fn(*args, **kwargs)
                with self.span(span_name):
                    return fn(*args, **kwargs)
            return wrapper
        return decorate

    def enable(self) -> "Tracer":
        self.enabled = True
        return self

    def disable(self) -> "Tracer":
        self.enabled = False
        return self

    def _new_id(self) -> int:
        with self._lock:
            self._id_counter += 1
            return self._id_counter

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def _append(self, record: SpanRecord):
        with self._lock:
            self._records.append(record)

    # -- access -------------------------------------------------------------
    @property
    def records(self) -> List[SpanRecord]:
        """Snapshot of the completed spans (copy; safe to iterate)."""
        with self._lock:
            return list(self._records)

    def clear(self):
        with self._lock:
            self._records.clear()

    # -- reporting ----------------------------------------------------------
    def span_tree(self) -> List[Dict[str, object]]:
        """The recorded forest as nested dicts (roots in start order)."""
        records = sorted(self.records, key=lambda r: r.start_s)
        nodes: Dict[int, Dict[str, object]] = {}
        roots: List[Dict[str, object]] = []
        for record in records:
            nodes[record.span_id] = {
                "name": record.name,
                "start_s": record.start_s,
                "duration_s": record.duration_s,
                "pid": record.pid,
                "meta": dict(record.meta),
                "children": [],
            }
        for record in records:
            node = nodes[record.span_id]
            parent = nodes.get(record.parent_id)
            if parent is not None:
                parent["children"].append(node)
            else:
                roots.append(node)
        return roots

    def total_time(self) -> float:
        """Wall-clock seconds covered by the root spans."""
        return float(sum(
            r.duration_s for r in self.records if r.parent_id is None
        ))

    def _aggregate_paths(self):
        """Aggregate spans by call path: path -> [calls, total, child]."""
        records = self.records
        by_id = {r.span_id: r for r in records}
        paths: Dict[tuple, List[float]] = {}
        child_time: Dict[tuple, float] = {}

        def path_of(record: SpanRecord) -> tuple:
            parts = [record.name]
            parent = by_id.get(record.parent_id)
            guard = 0
            while parent is not None and guard < 128:
                parts.append(parent.name)
                parent = by_id.get(parent.parent_id)
                guard += 1
            return tuple(reversed(parts))

        for record in records:
            path = path_of(record)
            entry = paths.setdefault(path, [0, 0.0])
            entry[0] += 1
            entry[1] += record.duration_s
            if len(path) > 1:
                child_time[path[:-1]] = (
                    child_time.get(path[:-1], 0.0) + record.duration_s
                )
        return paths, child_time

    def format_spans(self, min_fraction: float = 0.0) -> str:
        """Flamegraph-style text summary, aggregated by call path.

        One line per distinct path, indented by depth, with call count,
        total time, self time (total minus traced children), and the
        share of the root wall clock.  Paths below *min_fraction* of
        the total are folded away.
        """
        paths, child_time = self._aggregate_paths()
        if not paths:
            return "(no spans recorded)"
        total = sum(t for path, (_, t) in paths.items() if len(path) == 1)
        total = total or 1e-12
        lines = [f"{'span':<48} {'calls':>7} {'total':>10} "
                 f"{'self':>10} {'%':>6}"]
        for path in sorted(paths, key=lambda p: (p[:1], p)):
            calls, span_total = paths[path]
            if span_total / total < min_fraction and len(path) > 1:
                continue
            self_time = span_total - child_time.get(path, 0.0)
            label = "  " * (len(path) - 1) + path[-1]
            lines.append(
                f"{label:<48.48} {calls:>7d} {span_total:>9.3f}s "
                f"{self_time:>9.3f}s {100.0 * span_total / total:>5.1f}%"
            )
        return "\n".join(lines)

    def as_dict(self) -> Dict[str, object]:
        return {
            "enabled": self.enabled,
            "total_time_s": self.total_time(),
            "spans": [r.as_dict() for r in self.records],
            "tree": self.span_tree(),
        }

    def to_json(self, path: Optional[str] = None, indent: int = 2) -> str:
        """Serialize spans + tree to JSON; optionally write to *path*."""
        text = json.dumps(self.as_dict(), indent=indent, default=str)
        if path is not None:
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text + "\n")
        return text

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "Tracer":
        """Rebuild a tracer from an :meth:`as_dict` export.

        The reporting methods (``format_spans``, ``span_tree``) work on
        the reconstructed buffer, so an exported ``trace.json`` can be
        re-rendered offline (see ``repro-obs flame``).
        """
        tracer = cls(enabled=bool(data.get("enabled", True)))
        records: List[SpanRecord] = []
        for raw in data.get("spans", []):
            parent = raw.get("parent_id")
            records.append(SpanRecord(
                span_id=int(raw["span_id"]),
                parent_id=None if parent is None else int(parent),
                name=str(raw.get("name", "")),
                start_s=float(raw.get("start_s", 0.0)),
                duration_s=float(raw.get("duration_s", 0.0)),
                pid=int(raw.get("pid", 0)),
                meta=dict(raw.get("meta", {})),
            ))
        tracer._records = records
        tracer._id_counter = max((r.span_id for r in records), default=0)
        return tracer

    @classmethod
    def from_json(cls, path: str) -> "Tracer":
        """Load a ``trace.json`` written by :meth:`to_json`."""
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_dict(json.load(handle))


_global_tracer = Tracer()


def get_tracer() -> Tracer:
    """The process-wide tracer the instrumented components record into."""
    return _global_tracer


def set_tracer(tracer: Tracer) -> Tracer:
    """Swap the global tracer (returns the previous one)."""
    global _global_tracer
    previous, _global_tracer = _global_tracer, tracer
    return previous


def span(name: str, **meta):
    """Open a span on the global tracer (no-op while disabled)."""
    return _global_tracer.span(name, **meta)


def traced(name: Optional[str] = None) -> Callable:
    """Decorator recording a span on the *current* global tracer."""
    def decorate(fn: Callable) -> Callable:
        span_name = name or fn.__qualname__

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer = _global_tracer
            if not tracer.enabled:
                return fn(*args, **kwargs)
            with tracer.span(span_name):
                return fn(*args, **kwargs)
        return wrapper
    return decorate
