"""repro.obs — lightweight, zero-dependency observability.

Three pieces, threaded through the whole stack:

* :mod:`repro.obs.tracer` — nested spans with a context-manager and
  decorator API, monotonic-clock timing, per-thread span stacks.  Enabled by
  ``REPRO_TRACE=1`` or programmatically; free when disabled.
* :mod:`repro.obs.metrics` — a counter/gauge/histogram registry that
  absorbs the :class:`~repro.optimize.faults.RunHealth` counters and
  extends them with solver-call, cache hit/miss, and
  batch-vs-scalar-fallback totals; exported as JSON or a
  :func:`format_metrics` table.
* :mod:`repro.obs.telemetry` — the per-generation ``on_generation``
  callback protocol every population optimizer emits, persisted inside
  checkpoints so resumed runs keep a contiguous convergence trace.

Quick profiling of any callable::

    from repro import obs
    result, tracer = obs.profile_run(my_run)   # prints the span summary

or for a whole experiment, set ``REPRO_TRACE=1`` and call
:func:`export_observability` afterwards to drop ``trace.json`` +
``metrics.json`` next to the run's other artifacts.
"""

from __future__ import annotations

import os
import time
from typing import Callable, Optional, Tuple

from repro.obs.analytics import (
    FleetView,
    RunIndex,
    config_distance,
    load_final_population,
    warm_start_population,
)
from repro.obs.compare import (
    RunDiff,
    RunSummary,
    compare_runs,
    compare_summaries,
    format_diff,
    load_summary,
    summarize_journal,
)
from repro.obs.journal import (
    JOURNAL_SCHEMA_VERSION,
    JournalError,
    JournalReplay,
    RunJournal,
    config_fingerprint,
    emit,
    get_journal,
    read_events,
    read_tail_events,
    replay_journal,
    set_journal,
)
from repro.obs.promexport import PromExporter, render_prometheus
from repro.obs.metrics import (
    Metrics,
    format_metrics,
    get_metrics,
    inc,
    observe,
    set_metrics,
)
from repro.obs.runs import (
    RunDir,
    RunRegistry,
    create_run,
    list_runs,
    load_run,
    recorded_run,
    summarize_run,
)
from repro.obs.telemetry import (
    GenerationRecord,
    TelemetryRecorder,
    format_telemetry,
    population_stats,
)
from repro.obs.tracer import (
    TRACE_ENV,
    SpanRecord,
    Tracer,
    get_tracer,
    set_tracer,
    span,
    trace_enabled_by_env,
    traced,
)

__all__ = [
    "TRACE_ENV",
    "SpanRecord",
    "Tracer",
    "get_tracer",
    "set_tracer",
    "span",
    "traced",
    "trace_enabled_by_env",
    "Metrics",
    "format_metrics",
    "get_metrics",
    "set_metrics",
    "inc",
    "observe",
    "GenerationRecord",
    "TelemetryRecorder",
    "format_telemetry",
    "population_stats",
    "profile_run",
    "export_observability",
    "JOURNAL_SCHEMA_VERSION",
    "JournalError",
    "RunJournal",
    "JournalReplay",
    "config_fingerprint",
    "get_journal",
    "set_journal",
    "emit",
    "read_events",
    "read_tail_events",
    "replay_journal",
    "FleetView",
    "RunIndex",
    "config_distance",
    "load_final_population",
    "warm_start_population",
    "PromExporter",
    "render_prometheus",
    "RunDir",
    "RunRegistry",
    "create_run",
    "list_runs",
    "load_run",
    "summarize_run",
    "recorded_run",
    "RunSummary",
    "RunDiff",
    "summarize_journal",
    "load_summary",
    "compare_runs",
    "compare_summaries",
    "format_diff",
]


def profile_run(fn: Callable, *args, stream=None,
                min_fraction: float = 0.005, **kwargs) -> Tuple:
    """Run *fn* under fresh tracer + metrics and dump the span summary.

    The global tracer *and* the global metrics registry are swapped
    for clean ones for the duration of the call (so the instrumented
    components record into them without polluting — or being polluted
    by — whatever the process accumulated before) and restored
    afterwards.  The flamegraph-style summary is printed to *stream*
    (default stdout).  Returns ``(result, tracer)``; the isolated
    registry is available as ``tracer.metrics``.
    """
    tracer = Tracer(enabled=True)
    metrics = Metrics()
    previous_tracer = set_tracer(tracer)
    previous_metrics = set_metrics(metrics)
    start = time.monotonic()
    try:
        result = fn(*args, **kwargs)
    finally:
        set_tracer(previous_tracer)
        set_metrics(previous_metrics)
    wall = time.monotonic() - start
    tracer.metrics = metrics
    summary = tracer.format_spans(min_fraction=min_fraction)
    text = (f"profile_run: {getattr(fn, '__qualname__', fn)!s} "
            f"took {wall:.3f}s wall\n{summary}")
    print(text, file=stream)
    return result, tracer


def export_observability(directory: str,
                         tracer: Optional[Tracer] = None,
                         metrics: Optional[Metrics] = None,
                         prefix: str = "") -> Tuple[str, str]:
    """Write ``<prefix>trace.json`` + ``<prefix>metrics.json``.

    Defaults to the global tracer/registry; returns the two paths.
    """
    tracer = tracer if tracer is not None else get_tracer()
    metrics = metrics if metrics is not None else get_metrics()
    os.makedirs(directory, exist_ok=True)
    trace_path = os.path.join(directory, f"{prefix}trace.json")
    metrics_path = os.path.join(directory, f"{prefix}metrics.json")
    tracer.to_json(trace_path)
    metrics.to_json(metrics_path)
    return trace_path, metrics_path
