"""Counter/gauge/histogram registry for optimization runs.

:class:`Metrics` is the quantitative half of the observability layer
(the :mod:`tracer <repro.obs.tracer>` is the temporal half): components
push named counters as they work — MNA solver calls, evaluator cache
hits and misses, batch-vs-scalar engine fallbacks — and a finished run
exports one JSON document plus a human-readable table
(:func:`format_metrics`).

The registry also **absorbs** the per-run
:class:`~repro.optimize.faults.RunHealth` records the fault-tolerant
runtime already keeps: :meth:`Metrics.absorb_run_health` snapshots the
health counters under a ``health.`` prefix by *assignment* (not
addition), so absorbing the same record twice — or a merged hierarchy
of records — can never double count.

Everything here is dependency-free and cheap enough to leave enabled:
a counter bump is a lock acquire plus two dict operations, orders of
magnitude below the millisecond-scale solves it annotates.
"""

from __future__ import annotations

import json
import random
import threading
import zlib
from typing import Dict, List, Optional

__all__ = [
    "DEFAULT_HISTOGRAM_CAP",
    "TRUNCATION_COUNTER",
    "Metrics",
    "format_metrics",
    "get_metrics",
    "set_metrics",
    "inc",
    "observe",
]

#: Histograms keep at most this many raw samples; beyond it they switch
#: to deterministic reservoir sampling (count/mean/min/max stay exact).
DEFAULT_HISTOGRAM_CAP = 4096

#: Counter bumped the first time each histogram starts truncating, so a
#: capped percentile estimate is never mistaken for an exact one.
TRUNCATION_COUNTER = "metrics.histogram_truncated"


def _percentile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank percentile of an already sorted list."""
    if not sorted_values:
        return float("nan")
    rank = max(0, min(len(sorted_values) - 1,
                      int(round(q * (len(sorted_values) - 1)))))
    return float(sorted_values[rank])


class _Reservoir:
    """Bounded histogram state: exact moments + sampled percentiles.

    ``count``/``total``/``min``/``max`` are updated on every
    observation and stay exact forever; the raw samples are kept only
    up to ``cap`` and thereafter replaced by Algorithm R reservoir
    sampling.  The RNG is seeded from the histogram *name* (crc32), so
    the same observation sequence always keeps the same sample set —
    runs stay bit-for-bit reproducible.
    """

    __slots__ = ("cap", "count", "total", "min", "max", "samples",
                 "truncated", "_rng")

    def __init__(self, name: str, cap: int):
        self.cap = int(cap)
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self.samples: List[float] = []
        self.truncated = False
        self._rng = random.Random(zlib.crc32(name.encode("utf-8")))

    def add(self, value: float) -> bool:
        """Record one observation; True when this add started truncating."""
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if len(self.samples) < self.cap:
            self.samples.append(value)
            return False
        first = not self.truncated
        self.truncated = True
        slot = self._rng.randrange(self.count)
        if slot < self.cap:
            self.samples[slot] = value
        return first

    def absorb(self, other: "_Reservoir") -> bool:
        """Fold another reservoir in; exact moments merge exactly."""
        self.total += other.total
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)
        was_truncated = self.truncated
        pseudo_count = self.count
        for value in other.samples:
            pseudo_count += 1
            if len(self.samples) < self.cap:
                self.samples.append(value)
                continue
            self.truncated = True
            slot = self._rng.randrange(pseudo_count)
            if slot < self.cap:
                self.samples[slot] = value
        self.count += other.count
        self.truncated = self.truncated or other.truncated
        return self.truncated and not was_truncated

    def summary(self) -> Dict[str, float]:
        if not self.count:
            return {"count": 0}
        ordered = sorted(self.samples)
        return {
            "count": self.count,
            "mean": float(self.total / self.count),
            "min": float(self.min),
            "p50": _percentile(ordered, 0.50),
            "p90": _percentile(ordered, 0.90),
            "max": float(self.max),
            "truncated": self.truncated,
            "n_samples": len(self.samples),
        }


class Metrics:
    """A thread-safe registry of counters, gauges, and histograms.

    * counters — monotonically increasing totals (:meth:`inc`);
    * gauges — last-write-wins point-in-time values (:meth:`gauge`);
    * histograms — bounded reservoirs summarized at export time
      (:meth:`observe`): count / mean / min / p50 / p90 / max, where
      count, mean, min, and max stay exact at any volume and the
      percentiles come from at most *histogram_cap* deterministically
      sampled observations.  The first truncation of each histogram
      bumps the :data:`TRUNCATION_COUNTER` counter.
    """

    def __init__(self, histogram_cap: int = DEFAULT_HISTOGRAM_CAP):
        self._lock = threading.Lock()
        self.histogram_cap = max(int(histogram_cap), 1)
        self._counters: Dict[str, float] = {}
        self._gauges: Dict[str, float] = {}
        self._histograms: Dict[str, _Reservoir] = {}

    # -- recording ----------------------------------------------------------
    def inc(self, name: str, n: float = 1) -> None:
        """Add *n* to counter *name* (created at 0)."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + n

    def set_counter(self, name: str, value: float) -> None:
        """Overwrite counter *name* (idempotent absorption paths)."""
        with self._lock:
            self._counters[name] = value

    def gauge(self, name: str, value: float) -> None:
        """Record the current value of gauge *name*."""
        with self._lock:
            self._gauges[name] = float(value)

    def observe(self, name: str, value: float) -> None:
        """Record one observation into histogram *name*."""
        with self._lock:
            reservoir = self._histograms.get(name)
            if reservoir is None:
                reservoir = _Reservoir(name, self.histogram_cap)
                self._histograms[name] = reservoir
            if reservoir.add(float(value)):
                # First truncation of this histogram: make it loud.
                self._counters[TRUNCATION_COUNTER] = (
                    self._counters.get(TRUNCATION_COUNTER, 0) + 1
                )

    # -- access -------------------------------------------------------------
    def counter(self, name: str) -> float:
        with self._lock:
            return self._counters.get(name, 0)

    def counters(self) -> Dict[str, float]:
        with self._lock:
            return dict(self._counters)

    def gauges(self) -> Dict[str, float]:
        with self._lock:
            return dict(self._gauges)

    def histogram_summary(self, name: str) -> Dict[str, float]:
        with self._lock:
            reservoir = self._histograms.get(name)
            if reservoir is None:
                return {"count": 0}
            return reservoir.summary()

    def clear(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()

    # -- composition --------------------------------------------------------
    def absorb_run_health(self, health, prefix: str = "health") -> None:
        """Snapshot a :class:`RunHealth` record under ``<prefix>.``.

        Counters are written by **assignment**, so re-absorbing the
        same (or an updated) record replaces rather than accumulates —
        the health record itself stays the single source of truth for
        failure totals, and retries cannot double count through this
        path.  Duck-typed so :mod:`repro.obs` keeps zero
        package dependencies.
        """
        for category, count in health.failures.items():
            self.set_counter(f"{prefix}.failures.{category}", count)
        self.set_counter(f"{prefix}.n_failures", health.n_failures)
        self.set_counter(f"{prefix}.retries", health.retries)
        self.set_counter(f"{prefix}.engine_fallbacks",
                         health.engine_fallbacks)
        self.set_counter(f"{prefix}.checkpoints_written",
                         health.checkpoints_written)

    def merge(self, other: "Metrics") -> None:
        """Fold another registry in (counters add, gauges last-write).

        Histogram moments merge exactly; the percentile sample sets are
        combined through this registry's reservoirs, so the merged
        histogram is still bounded by ``histogram_cap``.
        """
        for name, value in other.counters().items():
            self.inc(name, value)
        for name, value in other.gauges().items():
            self.gauge(name, value)
        with other._lock:
            theirs = dict(other._histograms)
        with self._lock:
            for name, reservoir in theirs.items():
                mine = self._histograms.get(name)
                if mine is None:
                    mine = _Reservoir(name, self.histogram_cap)
                    self._histograms[name] = mine
                started = mine.absorb(reservoir)
                # Other's own truncations already arrived via the
                # counter merge above; only count a truncation the
                # merge itself caused.
                if started and not reservoir.truncated:
                    self._counters[TRUNCATION_COUNTER] = (
                        self._counters.get(TRUNCATION_COUNTER, 0) + 1
                    )

    # -- export -------------------------------------------------------------
    def as_dict(self) -> Dict[str, object]:
        with self._lock:
            histogram_names = list(self._histograms)
        return {
            "counters": self.counters(),
            "gauges": self.gauges(),
            "histograms": {
                name: self.histogram_summary(name)
                for name in histogram_names
            },
        }

    def to_json(self, path: Optional[str] = None, indent: int = 2) -> str:
        """Serialize the registry to JSON; optionally write to *path*."""
        text = json.dumps(self.as_dict(), indent=indent, sort_keys=True)
        if path is not None:
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text + "\n")
        return text


def format_metrics(metrics: Metrics, title: str = "Metrics") -> str:
    """Render a registry as aligned plain-text tables."""
    exported = metrics.as_dict()
    lines: List[str] = [title] if title else []
    rows = [(name, value) for name, value in
            sorted(exported["counters"].items())]
    rows += [(name, value) for name, value in
             sorted(exported["gauges"].items())]
    if rows:
        width = max(len(name) for name, _ in rows)
        for name, value in rows:
            rendered = (f"{value:g}" if isinstance(value, float)
                        else str(value))
            lines.append(f"  {name:<{width}}  {rendered}")
    histograms = exported["histograms"]
    if histograms:
        lines.append("  -- histograms (count / mean / p50 / p90 / max) --")
        width = max(len(name) for name in histograms)
        for name in sorted(histograms):
            summary = histograms[name]
            if not summary.get("count"):
                lines.append(f"  {name:<{width}}  (empty)")
                continue
            sampled = " (sampled)" if summary.get("truncated") else ""
            lines.append(
                f"  {name:<{width}}  {summary['count']:d} / "
                f"{summary['mean']:.3g} / {summary['p50']:.3g} / "
                f"{summary['p90']:.3g} / {summary['max']:.3g}{sampled}"
            )
    if len(lines) <= (1 if title else 0):
        lines.append("  (no metrics recorded)")
    return "\n".join(lines)


_global_metrics = Metrics()


def get_metrics() -> Metrics:
    """The process-wide registry the instrumented components push to."""
    return _global_metrics


def set_metrics(metrics: Metrics) -> Metrics:
    """Swap the global registry (returns the previous one)."""
    global _global_metrics
    previous, _global_metrics = _global_metrics, metrics
    return previous


def inc(name: str, n: float = 1) -> None:
    """Bump a counter on the global registry."""
    _global_metrics.inc(name, n)


def observe(name: str, value: float) -> None:
    """Record a histogram observation on the global registry."""
    _global_metrics.observe(name, value)
